(* White-box tests of the update protocol's termination-detection
   bookkeeping (Dijkstra–Scholten), driving [Update.handle] directly
   through a stub runtime that records every message instead of
   simulating a network. *)

open Helpers
module Update = Codb_core.Update
module Update_state = Codb_core.Update_state
module Node = Codb_core.Node
module Runtime = Codb_core.Runtime
module Options = Codb_core.Options
module Payload = Codb_core.Payload
module Ids = Codb_core.Ids
module Peer_id = Codb_net.Peer_id

(* A node named "me" importing r from "up" and serving r to "down":
   a middle link of a chain. *)
let middle_config =
  {|
node down { relation r(x: int); }
node me { relation r(x: int); fact r(1); }
node up { relation r(x: int); fact r(2); }
rule to_down at down: r(x) <- me: r(x);
rule from_up at me: r(x) <- up: r(x);
|}

type sent = { dst : string; payload : Payload.t }

let make_runtime ?(name = "me") ?(opts = Options.default) config_text =
  let cfg = parse_config config_text in
  let decl = Option.get (Config.node cfg name) in
  let node = Node.create decl in
  Node.set_rules node
    ~outgoing:(Config.rules_importing_at cfg name)
    ~incoming:(Config.rules_sourced_at cfg name);
  let outbox = ref [] in
  let rt =
    {
      Runtime.node;
      opts;
      send =
        (fun ~dst payload ->
          outbox := { dst = Peer_id.to_string dst; payload } :: !outbox;
          true);
      now = (fun () -> 0.0);
      schedule = (fun ~delay:_ action -> action ());
      connect = (fun _ -> ());
      disconnect = (fun _ -> ());
      neighbours = (fun () -> []);
    }
  in
  (rt, node, outbox)

let drain outbox =
  let messages = List.rev !outbox in
  outbox := [];
  messages

let uid = Ids.update_id (Peer_id.of_string "origin") 1

let peer name = Peer_id.of_string name

let count pred messages = List.length (List.filter pred messages)

(* An acknowledgement: a bare one, or the one a node's message to its
   parent carries. *)
let is_ack m =
  match m.payload with
  | Payload.Update_ack _ | Payload.Update_batch { carries_ack = true; _ } -> true
  | _ -> false

let is_request m =
  match m.payload with Payload.Update_request _ -> true | _ -> false

(* The rows a message ships, per rule. *)
let shipped m =
  match m.payload with
  | Payload.Update_data { rule_id; rows; _ } -> [ (rule_id, rows) ]
  | Payload.Update_batch { entries; _ } ->
      List.map (fun e -> (e.Payload.be_rule, e.Payload.be_rows)) entries
  | _ -> []

let is_data m = shipped m <> []

(* The rows a message ships on [rule]. *)
let shipped_on rule m =
  List.concat_map (fun (r, rows) -> if r = rule then boxed rows else []) (shipped m)

(* The links a message closes. *)
let closes_in m =
  match m.payload with
  | Payload.Update_link_closed { rule_id; _ } -> [ rule_id ]
  | Payload.Update_batch { closes; _ } -> closes
  | _ -> []

(* The one message to the parent: its closes, whether it carries the
   acknowledgement, and whether it reports the subtree done. *)
let to_parent_shape m =
  match m.payload with
  | Payload.Update_batch { closes; carries_ack; subtree_done; no_ack = true; _ } ->
      Some (closes, carries_ack, subtree_done)
  | _ -> None

let is_terminated m =
  match m.payload with Payload.Update_terminated _ -> true | _ -> false

let state node = Option.get (Node.update_state node uid)

let state_tables_empty msg (st : Update_state.t) =
  Alcotest.(check bool) (msg ^ ": tables released") true
    (Option.is_none st.Update_state.ust_live);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (msg ^ ": " ^ rule ^ " inactive") false
        (Update_state.is_active_in st rule || Update_state.is_active_out st rule))
    [ "to_down"; "from_up" ]

(* The [no_ack] flag of an update data or close message, if it is
   one. *)
let no_ack_of m =
  match m.payload with
  | Payload.Update_data { no_ack; _ }
  | Payload.Update_batch { no_ack; _ }
  | Payload.Update_link_closed { no_ack; _ } ->
      Some no_ack
  | _ -> None

let data_from ?(no_ack = false) rule values =
  Payload.Update_data
    { update_id = uid; rule_id = rule; rows = packed (List.map (fun x -> tup [ i x ]) values);
      hops = 1; global = true; no_ack }

(* A plain close, or (with [carries_ack]) the close a child sends its
   parent with its acknowledgement. *)
let close_of ?(no_ack = false) ?(carries_ack = false) ?(subtree_done = false) rule =
  if carries_ack then
    Payload.Update_batch
      { update_id = uid; entries = []; closes = [ rule ]; global = true; no_ack; carries_ack;
        subtree_done }
  else Payload.Update_link_closed { update_id = uid; rule_id = rule; global = true; no_ack }

(* A node serving both its neighbours. *)
let both_ways_config =
  {|
node down { relation r(x: int); }
node me { relation r(x: int); fact r(1); }
node up { relation s(x: int); relation t(x: int); fact s(2); }
rule to_down at down: r(x) <- me: r(x);
rule to_up at up: t(x) <- me: r(x);
rule from_up at me: r(x) <- up: s(x);
|}

let test_first_contact_floods_and_serves () =
  let rt, node, outbox = make_runtime both_ways_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let messages = drain outbox in
  (* floods the request to the other acquaintance (up), serves its
     incoming link to up with local data, and does NOT ack yet: the
     engaging message is acknowledged on disengagement *)
  Alcotest.(check int) "one request forwarded" 1 (count is_request messages);
  Alcotest.(check bool) "forwarded to up" true
    (List.exists (fun m -> is_request m && m.dst = "up") messages);
  check_tuples "initial data to up" [ tup [ i 1 ] ]
    (List.concat_map (shipped_on "to_up") messages);
  (* the link to the parent (down) is lazy: the store buffers its rows
     until it closes or "me" disengages *)
  Alcotest.(check int) "nothing to the parent yet" 0
    (count (fun m -> m.dst = "down") messages);
  Alcotest.(check int) "no ack yet" 0 (count is_ack messages);
  let st = state node in
  Alcotest.(check bool) "engaged" true st.Update_state.ust_engaged;
  Alcotest.(check int) "deficit = messages owed" 2 st.Update_state.ust_deficit;
  Alcotest.(check (list bool)) "data to a non-parent counted" [ false ]
    (List.filter_map no_ack_of messages)

(* A rules file replaces the rule of a link mid-update: the link's
   prepared rule is the new one from the next arrival on, so no run
   derives through the rule the file dropped. *)
let rules_with cmp =
  Printf.sprintf
    {|
node down { relation r(x: int); }
node me { relation r(x: int); fact r(1); }
node up { relation s(x: int); relation t(x: int); fact s(2); }
rule to_down at down: r(x) <- me: r(x);
rule to_up at up: t(x) <- me: r(x), %s;
rule from_up at me: r(x) <- up: s(x);
|}
    cmp

let test_rules_change_mid_update () =
  let rt, _node, outbox = make_runtime (rules_with "x < 100") in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:20 (data_from "from_up" [ 2; 200 ]);
  check_tuples "the first rule's delta" [ tup [ i 2 ] ]
    (List.concat_map (shipped_on "to_up") (drain outbox));
  Alcotest.(check bool) "new rules applied" true
    (Codb_core.Reconfigure.apply rt ~version:1 (parse_config (rules_with "x > 100")));
  Update.handle rt ~src:(peer "up") ~bytes:20 (data_from "from_up" [ 5; 500 ]);
  check_tuples "the new rule's delta" [ tup [ i 500 ] ]
    (List.concat_map (shipped_on "to_up") (drain outbox))

let test_duplicate_request_acked_immediately () =
  let rt, _node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let messages = drain outbox in
  Alcotest.(check int) "exactly one message" 1 (List.length messages);
  Alcotest.(check bool) "an ack to up" true
    (match messages with [ m ] -> is_ack m && m.dst = "up" | _ -> false)

let test_disengage_acks_parent_when_deficit_clears () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  (* up acknowledges the forwarded request, the only counted message
     "me" sent (nothing went to the parent, down, yet) *)
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let messages = drain outbox in
  Alcotest.(check bool) "disengaged" false (state node).Update_state.ust_engaged;
  Alcotest.(check bool) "parent acked" true
    (match messages with [ m ] -> is_ack m && m.dst = "down" | _ -> false);
  (* the still-open link to the parent is served in the same message *)
  check_tuples "with the rows it is owed" [ tup [ i 1 ] ]
    (List.concat_map (shipped_on "to_down") messages);
  Alcotest.(check (list string)) "and no close" [] (List.concat_map closes_in messages)

let test_reengagement_after_disengage () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let _ = drain outbox in
  (* now disengaged; fresh data from up re-engages with up as parent *)
  Update.handle rt ~src:(peer "up") ~bytes:50
    (data_from "from_up" [ 2 ]);
  let messages = drain outbox in
  let st = state node in
  (* the new tuple triggers propagation to down (deficit 1), so "me"
     stays engaged and does not ack up yet *)
  Alcotest.(check bool) "re-engaged" true st.Update_state.ust_engaged;
  Alcotest.(check int) "data forwarded down" 1 (count is_data messages);
  Alcotest.(check int) "no ack yet" 0 (count is_ack messages);
  (* once down acknowledges, "me" disengages and acks up *)
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let messages = drain outbox in
  Alcotest.(check bool) "ack to the new parent" true
    (match messages with [ m ] -> is_ack m && m.dst = "up" | _ -> false)

let test_initiator_detects_termination () =
  let rt, node, outbox = make_runtime middle_config in
  Update.initiate rt uid;
  let messages = drain outbox in
  Alcotest.(check int) "requests to both acquaintances" 2 (count is_request messages);
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  (* one ack per message sent (request x2 + data to down) *)
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let messages = drain outbox in
  let st = state node in
  Alcotest.(check bool) "terminated" true st.Update_state.ust_terminated;
  Alcotest.(check bool) "stats finalised" true st.Update_state.ust_finished;
  (* both acquaintances acked plainly: neither reported a done subtree *)
  Alcotest.(check int) "terminated flood to both" 2 (count is_terminated messages)

(* An acquaintance whose ack came in a close that reported its subtree
   done gets no terminated; the others still do. *)
let test_initiator_skips_done_subtree () =
  let rt, node, outbox = make_runtime middle_config in
  Update.initiate rt uid;
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true ~subtree_done:true "from_up");
  (* the close of to_down follows: with the request and the data, three
     messages to down are owed *)
  List.iter
    (fun () -> Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid }))
    [ (); (); () ];
  let messages = drain outbox in
  Alcotest.(check bool) "terminated" true (state node).Update_state.ust_terminated;
  Alcotest.(check (list string)) "terminated flood to down only" [ "down" ]
    (List.map (fun m -> m.dst) (List.filter is_terminated messages))

let test_terminated_flood_closes_links () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "down") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  let messages = drain outbox in
  let st = state node in
  Alcotest.(check bool) "out link closed" true
    (Update_state.out_state st "from_up" = Update_state.Link_closed);
  Alcotest.(check bool) "in link closed" true
    (Update_state.in_state st "to_down" = Update_state.Link_closed);
  (* up acked nothing yet, so it reported no done subtree *)
  Alcotest.(check int) "flood forwarded to up only" 1 (count is_terminated messages);
  (* a second terminated is absorbed silently *)
  Update.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  Alcotest.(check int) "no re-flood" 0 (List.length (drain outbox))

(* "me" between its parent down, a child up that reports a done
   subtree, and a child side whose link stays open (as on a cycle):
   "me" is not done itself, and relays the terminated flood to side
   only. *)
let relay_config =
  {|
node down { relation r(x: int); }
node me { relation r(x: int); }
node up { relation r(x: int); fact r(2); }
node side { relation r(x: int); }
rule to_down at down: r(x) <- me: r(x);
rule from_up at me: r(x) <- up: r(x);
rule from_side at me: r(x) <- side: r(x);
|}

let test_relay_skips_done_subtree () =
  let rt, node, outbox = make_runtime relay_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true ~subtree_done:true "from_up");
  Update.handle rt ~src:(peer "side") ~bytes:20 (Payload.Update_ack { update_id = uid });
  (* from_side is still open: "me" disengages with a plain ack *)
  Alcotest.(check bool) "a plain ack to down" true
    (match drain outbox with [ m ] -> is_ack m && m.dst = "down" | _ -> false);
  Alcotest.(check bool) "not terminated by itself" false (state node).Update_state.ust_terminated;
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_terminated { update_id = uid });
  Alcotest.(check (list string)) "flood forwarded to side only" [ "side" ]
    (List.map (fun m -> m.dst) (List.filter is_terminated (drain outbox)))

(* A node whose every link closed, and whose only other acquaintance
   reported its subtree done, says so in its last close and terminates
   there: it commits, releases and floods nothing. *)
let test_done_subtree_terminates_at_disengagement () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true ~subtree_done:true "from_up");
  let messages = drain outbox in
  Alcotest.(check bool) "one close reporting the subtree done, to down" true
    (match messages with
    | [ ({ dst = "down"; _ } as m) ] -> to_parent_shape m = Some ([ "to_down" ], true, true)
    | _ -> false);
  check_tuples "the close carries the link's rows" [ tup [ i 1 ] ]
    (List.concat_map (shipped_on "to_down") messages);
  let st = state node in
  Alcotest.(check bool) "terminated" true st.Update_state.ust_terminated;
  Alcotest.(check bool) "finished" true st.Update_state.ust_finished;
  state_tables_empty "done" st;
  Alcotest.(check (option (array int))) "to_down's watermark committed" (Some [| 1 |])
    (Codb_core.Watermark.find node.Node.watermarks "to_down");
  (* a late terminated (its parent did not skip it) is absorbed *)
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_terminated { update_id = uid });
  Alcotest.(check int) "nothing flooded" 0 (List.length (drain outbox))

(* A child that acked at once, engaged by another path before our
   request reached it, reports nothing: the bit stays clear even though
   every link closed and the other child reported its subtree done. *)
let test_immediate_ack_keeps_the_bit_clear () =
  let rt, node, outbox = make_runtime relay_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  (* up, engaged elsewhere, closes its link later, counted *)
  Update.handle rt ~src:(peer "up") ~bytes:30 (close_of "from_up");
  Alcotest.(check bool) "up's close acked at once" true
    (match drain outbox with [ m ] -> is_ack m && m.dst = "up" | _ -> false);
  Update.handle rt ~src:(peer "side") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true ~subtree_done:true "from_side");
  Alcotest.(check bool) "the ack-carrying close to down reports nothing" true
    (match drain outbox with
    | [ ({ dst = "down"; _ } as m) ] -> to_parent_shape m = Some ([ "to_down" ], true, false)
    | _ -> false);
  Alcotest.(check bool) "not terminated" false (state node).Update_state.ust_terminated

let test_link_closed_cascades () =
  let rt, _node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  (* up closes me's only outgoing link; me's incoming link to down
     depends on it, so me must cascade the closure to down *)
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of "from_up");
  let messages = drain outbox in
  Alcotest.(check bool) "closure cascaded to down" true
    (List.exists (fun m -> m.dst = "down" && List.mem "to_down" (closes_in m)) messages);
  (* "me" still owes up's ack for its request: the close leaves alone,
     with the link's rows, and carries no ack *)
  check_tuples "the close carries the link's rows" [ tup [ i 1 ] ]
    (List.concat_map (shipped_on "to_down") messages);
  Alcotest.(check bool) "no ack to down yet" false
    (List.exists (fun m -> m.dst = "down" && is_ack m) messages)

let test_scoped_request_activates_one_link () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.For_rule "to_down" });
  let messages = drain outbox in
  let st = state node in
  Alcotest.(check bool) "scoped state" true st.Update_state.ust_scoped;
  Alcotest.(check bool) "incoming active" true
    (Update_state.is_active_in st "to_down");
  Alcotest.(check bool) "relevant outgoing activated" true
    (Update_state.is_active_out st "from_up");
  Alcotest.(check int) "initial data served" 1 (count is_data messages);
  (* the upstream request is scoped, not a flood *)
  Alcotest.(check bool) "scoped request upstream" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Update_request { scope = Payload.For_rule "from_up"; _ } ->
             m.dst = "up"
         | _ -> false)
       messages)

let test_late_data_after_termination_absorbed () =
  (* a straggler data message arriving after the terminated flood:
     the node re-engages, integrates, immediately disengages (nothing
     to forward: links are closed) and acks — no crash, no leak *)
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  (* both outstanding messages acked: the node disengages... *)
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let _ = drain outbox in
  (* ...then the terminated flood closes its links... *)
  Update.handle rt ~src:(peer "down") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:50
    (data_from "from_up" [ 9 ]);
  let messages = drain outbox in
  let st = state node in
  Alcotest.(check bool) "tuple still integrated" true
    (Codb_relalg.Relation.mem
       (Codb_relalg.Database.relation node.Node.store "r")
       (tup [ i 9 ]));
  Alcotest.(check bool) "disengaged again" false st.Update_state.ust_engaged;
  Alcotest.(check bool) "straggler acked" true
    (match messages with [ m ] -> is_ack m && m.dst = "up" | _ -> false)

(* A finished update pins nothing: once it terminated (by any path) its
   sent filters are released and a late data message sends nothing. *)
let check_finished_update_pins_nothing ?opts terminate =
  let rt, node, outbox = make_runtime ?opts middle_config in
  terminate rt outbox;
  let st = state node in
  Alcotest.(check bool) "terminated" true st.Update_state.ust_terminated;
  List.iter
    (fun rule ->
      Alcotest.(check int) ("nothing tracked for " ^ rule) 0
        (Update_state.sent_tracked st rule))
    [ "to_down"; "from_up" ];
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:50
    (data_from "from_up" [ 9 ]);
  Alcotest.(check int) "late data sends nothing" 0 (count is_data (drain outbox))

(* r(1) went out on to_down before termination, so the filter held a
   row. *)
let served_to_down node outbox =
  Alcotest.(check int) "data served to down" 1 (count is_data (drain outbox));
  Alcotest.(check int) "filter holds the served row" 1
    (Update_state.sent_tracked (state node) "to_down")

let test_released_on_initiator_quiescence () =
  check_finished_update_pins_nothing (fun rt outbox ->
      Update.initiate rt uid;
      served_to_down rt.Runtime.node outbox;
      List.iter
        (fun src -> Update.handle rt ~src:(peer src) ~bytes:20 (Payload.Update_ack { update_id = uid }))
        [ "up"; "down"; "down" ])

let test_released_on_terminated_flood () =
  check_finished_update_pins_nothing (fun rt outbox ->
      Update.handle rt ~src:(peer "down") ~bytes:100
        (Payload.Update_request { update_id = uid; scope = Payload.Global });
      (* the lazy link to the parent is served when "me" disengages *)
      Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
      served_to_down rt.Runtime.node outbox;
      Update.handle rt ~src:(peer "down") ~bytes:20
        (Payload.Update_terminated { update_id = uid }))

let test_released_on_forced_termination () =
  (* the stub runs scheduled actions at once, so the initiator's stall
     watchdog fires before any ack can arrive *)
  let opts = { Options.default with Options.ack_timeout = 0.05 } in
  check_finished_update_pins_nothing ~opts (fun rt outbox ->
      Update.initiate rt uid;
      Alcotest.(check int) "data served to down" 1 (count is_data (drain outbox));
      Alcotest.(check bool) "forced" true
        (Codb_core.Stats.update_stat rt.Runtime.node.Node.stats ~now:0.0 uid)
          .Codb_core.Stats.us_forced)

(* A terminated update keeps its flags and nothing else: after a tree
   update every state on every node has empty tables. *)
let test_terminated_states_keep_no_tables () =
  let sys =
    Codb_core.System.build_exn
      (Codb_core.Topology.generate ~seed:3 Codb_core.Topology.Binary_tree ~n:7)
  in
  let uid = Codb_core.System.run_update sys ~initiator:"n0" in
  List.iter
    (fun name ->
      let st = Option.get (Node.update_state (Codb_core.System.node sys name) uid) in
      Alcotest.(check bool) (name ^ " terminated") true st.Update_state.ust_terminated;
      state_tables_empty name st)
    (Codb_core.System.node_names sys)

(* Late protocol messages for a released update re-open nothing: the
   node integrates late data and acknowledges, but serves and closes no
   link. *)
let test_late_messages_after_release () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  Update.handle rt ~src:(peer "down") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  state_tables_empty "terminated" (state node);
  let _ = drain outbox in
  let is_close m = closes_in m <> [] in
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of "from_up");
  Update.handle rt ~src:(peer "up") ~bytes:50
    (data_from "from_up" [ 9 ]);
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.For_rule "to_down" });
  let messages = drain outbox in
  Alcotest.(check int) "no data" 0 (count is_data messages);
  Alcotest.(check int) "no close" 0 (count is_close messages);
  Alcotest.(check int) "no request" 0 (count is_request messages);
  state_tables_empty "after late messages" (state node)

(* A link still open keeps the bit clear, whatever the acquaintances
   reported: here "me" and its parent down form a cycle.  me closes the
   link that depends on nothing at once, and that close carries its
   ack, but to_down waits on from_down, so down may still send data
   that me must integrate and forward. *)
let two_cycle_config =
  {|
node down { relation r(x: int); relation s(x: int); relation t(x: int); fact s(5); }
node me { relation r(x: int); relation u(x: int); fact r(1); fact u(2); }
rule to_down at down: r(x) <- me: r(x);
rule to_down_u at down: t(x) <- me: u(x);
rule from_down at me: r(x) <- down: s(x);
|}

let test_open_link_keeps_the_bit_clear () =
  let rt, node, outbox = make_runtime two_cycle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let messages = drain outbox in
  Alcotest.(check (list (option (triple (list string) bool bool))))
    "the ack rides to_down_u's close, not done"
    [ Some ([ "to_down_u" ], true, false) ]
    (List.map to_parent_shape messages);
  (* both links to the parent are served in that message, the open
     one too *)
  check_tuples "to_down_u's rows" [ tup [ i 2 ] ]
    (List.concat_map (shipped_on "to_down_u") messages);
  check_tuples "to_down's rows" [ tup [ i 1 ] ] (List.concat_map (shipped_on "to_down") messages);
  Alcotest.(check bool) "not terminated" false (state node).Update_state.ust_terminated;
  (* down's data re-engages me, which still forwards it *)
  Update.handle rt ~src:(peer "down") ~bytes:50 (data_from ~no_ack:true "from_down" [ 5 ]);
  let messages = drain outbox in
  check_tuples "the new row goes on to down" [ tup [ i 5 ] ]
    (List.concat_map (shipped_on "to_down") messages);
  (* one hop more than the row it covers, which came over one *)
  Alcotest.(check (list int)) "two hops" [ 2 ]
    (List.concat_map
       (fun m ->
         match m.payload with
         | Payload.Update_batch { entries; _ } -> List.map (fun e -> e.Payload.be_hops) entries
         | _ -> [])
       messages)

(* A scoped update activates links one request at a time, so a node
   whose activated links are all closed may still be asked for
   another: it never reports its subtree done. *)
let two_links_config =
  {|
node down { relation r(x: int); relation t(x: int); }
node me { relation r(x: int); relation u(x: int); fact r(1); fact u(2); }
rule to_down at down: r(x) <- me: r(x);
rule to_down_u at down: t(x) <- me: u(x);
|}

let test_scoped_never_reports_done () =
  let rt, node, outbox = make_runtime two_links_config in
  let ask rule =
    Update.handle rt ~src:(peer "down") ~bytes:100
      (Payload.Update_request { update_id = uid; scope = Payload.For_rule rule })
  in
  ask "to_down";
  Alcotest.(check bool) "the ack rides the close, not done" true
    (List.exists (fun m -> to_parent_shape m = Some ([ "to_down" ], true, false)) (drain outbox));
  Alcotest.(check bool) "not terminated" false (state node).Update_state.ust_terminated;
  ask "to_down_u";
  Alcotest.(check int) "the second link is served" 1 (count is_data (drain outbox))

(* Run [sys]'s network to quiescence one event at a time, collecting
   the destinations of every [Update_terminated] put in flight, and
   checking after each event that each node of [done_subtree] holding
   a state for [uid] is still engaged or already terminated: it
   terminates no later than at its own disengagement. *)
let run_collecting_terminated ?(done_subtree = []) sys uid =
  let net = Codb_core.System.net sys in
  let seen = Hashtbl.create 16 in
  let collect () =
    List.iter
      (fun (m : Payload.t Codb_net.Message.t) ->
        match m.Codb_net.Message.payload with
        | Payload.Update_terminated _ ->
            Hashtbl.replace seen m.Codb_net.Message.msg_id
              (Peer_id.to_string m.Codb_net.Message.dst)
        | _ -> ())
      (Codb_net.Network.in_flight net)
  in
  let check_terminated_on_disengagement () =
    List.iter
      (fun name ->
        match Node.update_state (Codb_core.System.node sys name) uid with
        | Some st ->
            if not (st.Update_state.ust_engaged || st.Update_state.ust_terminated) then
              Alcotest.failf "%s disengaged without terminating" name
        | None -> ())
      done_subtree
  in
  collect ();
  while Codb_net.Network.step net do
    collect ();
    check_terminated_on_disengagement ()
  done;
  List.sort_uniq String.compare (Hashtbl.fold (fun _ dst acc -> dst :: acc) seen [])

let check_all_terminated_and_released sys uid =
  List.iter
    (fun name ->
      match Node.update_state (Codb_core.System.node sys name) uid with
      | Some st ->
          Alcotest.(check bool) (name ^ " terminated") true st.Update_state.ust_terminated;
          state_tables_empty name st
      | None -> Alcotest.failf "%s never took part" name)
    (Codb_core.System.node_names sys)

(* On a tree whose importers are the parents, every subtree reports
   itself done: the initiator floods nothing, and no terminated is
   delivered anywhere. *)
let test_tree_delivers_no_terminated () =
  let sys =
    Codb_core.System.build_exn
      (Codb_core.Topology.generate ~seed:3 Codb_core.Topology.Binary_tree ~n:7)
  in
  let uid = Codb_core.System.start_update sys ~initiator:"n0" in
  Alcotest.(check (list string)) "no terminated delivered" []
    (run_collecting_terminated ~done_subtree:[ "n1"; "n2"; "n3"; "n4"; "n5"; "n6" ] sys uid);
  check_all_terminated_and_released sys uid

(* A ring n0 -> n1 -> n2 -> n0 with a chain n2 <- n3 <- n4 hanging off
   n2: the chain reports itself done, the ring cannot, so the flood
   reaches every ring node and skips the chain. *)
let ring_with_chain_config =
  {|
node n0 { relation r(x: int); fact r(0); }
node n1 { relation r(x: int); fact r(1); }
node n2 { relation r(x: int); fact r(2); }
node n3 { relation r(x: int); fact r(3); }
node n4 { relation r(x: int); fact r(4); }
rule r01 at n0: r(x) <- n1: r(x);
rule r12 at n1: r(x) <- n2: r(x);
rule r20 at n2: r(x) <- n0: r(x);
rule r23 at n2: r(x) <- n3: r(x);
rule r34 at n3: r(x) <- n4: r(x);
|}

let test_ring_floods_and_skips_the_chain () =
  let sys = Codb_core.System.build_exn (parse_config ring_with_chain_config) in
  let uid = Codb_core.System.start_update sys ~initiator:"n0" in
  Alcotest.(check (list string)) "terminated reaches the ring but its initiator" [ "n1"; "n2" ]
    (run_collecting_terminated ~done_subtree:[ "n3"; "n4" ] sys uid);
  check_all_terminated_and_released sys uid;
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " holds every fact") 5
        (Codb_relalg.Relation.cardinal
           (Codb_relalg.Database.relation (Codb_core.System.node sys name).Node.store "r")))
    [ "n0"; "n1"; "n2" ]

(* The done subtree committed its watermarks when it closed its links:
   after fresh inserts the next update ships only the delta. *)
let chain_config =
  {|
node n0 { relation r(x: int); }
node n1 { relation r(x: int); fact r(1); }
node n2 { relation r(x: int); fact r(2); fact r(3); }
rule r01 at n0: r(x) <- n1: r(x);
rule r12 at n1: r(x) <- n2: r(x);
|}

let test_done_subtree_ships_only_the_delta () =
  let sys = Codb_core.System.build_exn (parse_config chain_config) in
  let shipped uid =
    let report =
      Option.get (Codb_core.Report.update_report (Codb_core.System.snapshots sys) uid)
    in
    List.fold_left
      (fun acc (_, t) -> acc + t.Codb_core.Stats.rt_tuples)
      0 report.Codb_core.Report.ur_per_rule
  in
  let first = Codb_core.System.start_update sys ~initiator:"n0" in
  Alcotest.(check (list string)) "no terminated delivered" []
    (run_collecting_terminated ~done_subtree:[ "n1"; "n2" ] sys first);
  (* r(2), r(3) to n1; r(1), r(2), r(3) to n0 *)
  Alcotest.(check int) "first update ships everything" 5 (shipped first);
  Alcotest.(check bool) "fresh fact" true
    (Codb_core.System.insert_fact sys ~at:"n2" ~rel:"r" (tup [ i 9 ]));
  let second = Codb_core.System.start_update sys ~initiator:"n0" in
  ignore (run_collecting_terminated sys second : string list);
  Alcotest.(check int) "second update ships the new row twice" 2 (shipped second);
  Alcotest.(check int) "n0 holds every fact" 4
    (Codb_relalg.Relation.cardinal
       (Codb_relalg.Database.relation (Codb_core.System.node sys "n0").Node.store "r"))

(* On a chain every edge costs a request and one reply per update: the
   reply carries the child's rows, its close and its acknowledgement,
   in the bulk update and in an incremental one alike. *)
let test_chain_replies_once_per_update () =
  let sys = Codb_core.System.build_exn (parse_config chain_config) in
  let net = Codb_core.System.net sys in
  let run_counting () =
    let seen = Hashtbl.create 16 in
    let collect () =
      List.iter
        (fun (m : Payload.t Codb_net.Message.t) ->
          if Payload.is_update_protocol m.Codb_net.Message.payload
             || (match m.Codb_net.Message.payload with
                | Payload.Update_ack _ | Payload.Update_terminated _ -> true
                | _ -> false)
          then
            Hashtbl.replace seen m.Codb_net.Message.msg_id
              ( Peer_id.to_string m.Codb_net.Message.src,
                Peer_id.to_string m.Codb_net.Message.dst ))
        (Codb_net.Network.in_flight net)
    in
    collect ();
    while Codb_net.Network.step net do
      collect ()
    done;
    let between src dst =
      Hashtbl.fold (fun _ edge acc -> if edge = (src, dst) then acc + 1 else acc) seen 0
    in
    [ between "n1" "n0"; between "n2" "n1"; Hashtbl.length seen ]
  in
  let _ = Codb_core.System.start_update sys ~initiator:"n0" in
  Alcotest.(check (list int)) "bulk: one reply per child, four messages" [ 1; 1; 4 ]
    (run_counting ());
  ignore (Codb_core.System.insert_fact sys ~at:"n2" ~rel:"r" (tup [ i 9 ]) : bool);
  let _ = Codb_core.System.start_update sys ~initiator:"n0" in
  Alcotest.(check (list int)) "incremental: the same" [ 1; 1; 4 ] (run_counting ());
  Alcotest.(check int) "n0 holds every fact" 4
    (Codb_relalg.Relation.cardinal
       (Codb_relalg.Database.relation (Codb_core.System.node sys "n0").Node.store "r"))

(* The tuples served on [to_down], framed by the reliable transport or
   not. *)
let served_to_down messages =
  List.concat_map
    (fun m ->
      match m.payload with
      | Payload.Seq { inner; _ } -> shipped_on "to_down" { m with payload = inner }
      | _ -> shipped_on "to_down" m)
    messages

(* A transport give-up on data to an importer voids the link's
   watermark: the next update serves the link in full. *)
let test_give_up_voids_the_watermark () =
  let opts = { Options.default with Options.ack_timeout = 0.05; max_retries = 0 } in
  let rt, node, outbox = make_runtime ~opts middle_config in
  (* engaged by down, "me" serves its lazy link to down when up's ack
     lets it disengage *)
  let serve n =
    let update_id = Ids.update_id (peer "origin") n in
    Update.handle rt ~src:(peer "down") ~bytes:100
      (Payload.Update_request { update_id; scope = Payload.Global });
    Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id })
  in
  let marks () = Codb_core.Watermark.find node.Node.watermarks "to_down" in
  serve 1;
  Update.handle rt ~src:(peer "down") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  Alcotest.(check (option (array int))) "committed at termination" (Some [| 1 |])
    (marks ());
  ignore (Database.insert node.Node.store "r" (tup [ i 5 ]));
  (* with a transport and no retry left, the stub's immediate timers
     give every framed message up *)
  node.Node.relay <- Some (Codb_core.Relay.create ());
  let _ = drain outbox in
  serve 2;
  check_tuples "the delta was served" [ tup [ i 5 ] ] (served_to_down (drain outbox));
  Alcotest.(check (option (array int))) "given up: watermark void" None (marks ());
  node.Node.relay <- None;
  serve 3;
  check_tuples "served in full" [ tup [ i 1 ]; tup [ i 5 ] ]
    (served_to_down (drain outbox))

let test_ack_for_unknown_update_ignored () =
  let rt, _, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check int) "nothing happens" 0 (List.length (drain outbox))


(* An engaged node owes its child nothing for the child's data: the
   data went to its parent, which is this node.  The row waits in the
   store until the node disengages, and then goes on to its own parent
   in the message that carries its ack. *)
let test_data_to_parent_not_acked () =
  let rt, _node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:50 (data_from ~no_ack:true "from_up" [ 2 ]);
  Alcotest.(check int) "no message at all" 0 (List.length (drain outbox));
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let messages = drain outbox in
  Alcotest.(check int) "no ack to up" 0 (count (fun m -> m.dst = "up") messages);
  Alcotest.(check bool) "one no-ack message to the parent, carrying its ack" true
    (match messages with
    | [ m ] -> m.dst = "down" && no_ack_of m = Some true && is_ack m
    | _ -> false);
  check_tuples "with the local row and the new one" [ tup [ i 1 ]; tup [ i 2 ] ]
    (List.concat_map (shipped_on "to_down") messages)

(* Data counted by its sender is acknowledged at once by an engaged
   receiver, and data to a non-parent is counted. *)
let test_data_to_non_parent_acked () =
  let rt, node, outbox = make_runtime middle_config in
  Update.initiate rt uid;
  let messages = drain outbox in
  (* the initiator has no parent: its data to down is counted *)
  Alcotest.(check (list bool)) "initiator's data is counted" [ false ]
    (List.filter_map no_ack_of messages);
  Alcotest.(check int) "two requests and the data owed" 3
    (state node).Update_state.ust_deficit;
  Update.handle rt ~src:(peer "up") ~bytes:50 (data_from "from_up" [ 2 ]);
  let messages = drain outbox in
  Alcotest.(check bool) "counted data acked" true
    (List.exists (fun m -> is_ack m && m.dst = "up") messages)

(* A close that carries the sender's ack closes the link and lowers
   the deficit by one, and nothing goes back for it. *)
let fan_in_config =
  {|
node me { relation r(x: int); }
node up { relation r(x: int); fact r(2); }
node side { relation r(x: int); }
rule from_up at me: r(x) <- up: r(x);
rule from_side at me: r(x) <- side: r(x);
|}

let test_close_carrying_ack () =
  let rt, node, outbox = make_runtime fan_in_config in
  Update.initiate rt uid;
  let _ = drain outbox in
  let st = state node in
  Alcotest.(check int) "two requests owed" 2 st.Update_state.ust_deficit;
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true "from_up");
  Alcotest.(check int) "nothing sent back" 0 (List.length (drain outbox));
  Alcotest.(check int) "deficit down by one" 1 st.Update_state.ust_deficit;
  Alcotest.(check bool) "link closed" true
    (Update_state.out_state st "from_up" = Update_state.Link_closed);
  Update.handle rt ~src:(peer "side") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check bool) "terminated" true st.Update_state.ust_terminated

(* The last close to the parent carries the disengagement ack: one
   message instead of a close and an ack. *)
let test_last_close_carries_the_ack () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  (* up, engaged by our request, closes its link and acks in one *)
  Update.handle rt ~src:(peer "up") ~bytes:30
    (close_of ~no_ack:true ~carries_ack:true "from_up");
  let messages = drain outbox in
  Alcotest.(check bool) "disengaged" false (state node).Update_state.ust_engaged;
  Alcotest.(check bool) "one close carrying the ack, to down" true
    (match messages with
    | [ ({ dst = "down"; _ } as m) ] -> to_parent_shape m = Some ([ "to_down" ], true, false)
    | _ -> false);
  check_tuples "and the link's rows" [ tup [ i 1 ] ]
    (List.concat_map (shipped_on "to_down") messages)

(* A node serving both its neighbours: after re-engagement only the
   new parent goes unacknowledged, and only its link is lazy. *)

let test_reengaged_elides_only_to_new_parent () =
  let rt, node, outbox = make_runtime both_ways_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let first = drain outbox in
  let flag dst ms =
    List.filter_map (fun m -> if m.dst = dst then no_ack_of m else None) ms
  in
  Alcotest.(check (list bool)) "first parent down: nothing yet" [] (flag "down" first);
  Alcotest.(check (list bool)) "up counted" [ false ] (flag "up" first);
  (* the request and the data to up are acked: disengage *)
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check (list bool)) "down's rows ride the ack, no-ack" [ true ]
    (flag "down" (drain outbox));
  Alcotest.(check bool) "disengaged" false (state node).Update_state.ust_engaged;
  (* up's data re-engages "me" with up as its parent *)
  Update.handle rt ~src:(peer "up") ~bytes:50 (data_from "from_up" [ 3 ]);
  let second = drain outbox in
  Alcotest.(check (list bool)) "now down is counted" [ false ] (flag "down" second);
  Alcotest.(check (list bool)) "and up, the new parent, waits" [] (flag "up" second);
  Alcotest.(check int) "only the data to down owed" 1 (state node).Update_state.ust_deficit;
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let third = drain outbox in
  Alcotest.(check (list bool)) "up's rows ride the ack, no-ack" [ true ] (flag "up" third);
  check_tuples "the new row, to up" [ tup [ i 3 ] ] (List.concat_map (shipped_on "to_up") third)

(* A node that is not engaged treats a no-ack message like any other
   first message: the sender becomes its parent, and the ack is owed
   at disengagement.  This covers a node whose engagement a crash
   wiped: after the restart it holds no state for the update. *)
let test_no_ack_to_unengaged_node ~crash () =
  let rt, node, outbox = make_runtime middle_config in
  if crash then begin
    Update.handle rt ~src:(peer "down") ~bytes:100
      (Payload.Update_request { update_id = uid; scope = Payload.Global });
    Node.reset_volatile node;
    Alcotest.(check bool) "no state after the restart" true
      (Option.is_none (Node.update_state node uid))
  end;
  let _ = drain outbox in
  Update.handle rt ~src:(peer "up") ~bytes:50 (data_from ~no_ack:true "from_up" [ 2 ]);
  let messages = drain outbox in
  let st = state node in
  Alcotest.(check bool) "engaged" true st.Update_state.ust_engaged;
  Alcotest.(check bool) "the sender is the parent" true
    (st.Update_state.ust_parent = Some (peer "up"));
  Alcotest.(check int) "no ack yet" 0 (count is_ack messages);
  (* down is not the parent: every message to it is counted *)
  let owed = count (fun m -> m.dst = "down") messages in
  Alcotest.(check int) "counted towards down" owed st.Update_state.ust_deficit;
  for _ = 1 to owed do
    Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid })
  done;
  Alcotest.(check bool) "acked at disengagement" true
    (match drain outbox with [ m ] -> is_ack m && m.dst = "up" | _ -> false)

let test_no_ack_to_disengaged_node () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let _ = drain outbox in
  Alcotest.(check bool) "disengaged" false (state node).Update_state.ust_engaged;
  Update.handle rt ~src:(peer "up") ~bytes:50 (data_from ~no_ack:true "from_up" [ 2 ]);
  Alcotest.(check int) "no ack yet" 0 (count is_ack (drain outbox));
  Alcotest.(check bool) "re-engaged under the sender" true
    ((state node).Update_state.ust_parent = Some (peer "up"));
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check bool) "acked at disengagement" true
    (match drain outbox with [ m ] -> is_ack m && m.dst = "up" | _ -> false)

(* "me" between its parent down and up, with a second link to down that
   depends on nothing and so closes at first contact. *)
let early_close_config =
  {|
node down { relation r(x: int); relation t(x: int); }
node me { relation r(x: int); relation u(x: int); fact r(1); fact u(2); }
node up { relation r(x: int); fact r(2); }
rule to_down at down: r(x) <- me: r(x);
rule to_down_u at down: t(x) <- me: u(x);
rule from_up at me: r(x) <- up: r(x);
|}

(* Under the reliable transport the disengagement ack waits until
   everything sent to the parent has settled: a retransmitted close
   could otherwise reach the parent after it. *)
let test_reliable_ack_waits_for_settlement () =
  let opts = { Options.default with Options.ack_timeout = 0.05 } in
  let timers = ref [] in
  let rt, node, outbox = make_runtime ~opts early_close_config in
  let rt = { rt with Runtime.schedule = (fun ~delay:_ action -> timers := action :: !timers) } in
  node.Node.relay <- Some (Codb_core.Relay.create ());
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  (* to_down_u closed at once; "me" still owes up's ack, so the close
     leaves alone, with its link's rows *)
  let data_seq =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Seq
            { seq; inner = Payload.Update_batch { closes = [ "to_down_u" ]; carries_ack = false; _ } }
          ->
            Some seq
        | _ -> None)
      (drain outbox)
  in
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check int) "deficit clear, but nothing sent" 0 (List.length (drain outbox));
  Alcotest.(check bool) "still engaged" true (state node).Update_state.ust_engaged;
  Codb_core.Reliable.on_ack rt (Option.get data_seq);
  Alcotest.(check bool) "disengaged once the data settled" false
    (state node).Update_state.ust_engaged;
  Alcotest.(check bool) "the ack follows, with to_down's rows" true
    (match drain outbox with
    | [ { dst = "down";
          payload =
            Payload.Seq
              { inner =
                  Payload.Update_batch
                    { entries = [ { Payload.be_rule = "to_down"; _ } ]; carries_ack = true; _ };
                _ } } ] ->
        true
    | _ -> false)

(* Under the reliable transport a close waits behind unsettled data to
   its importer; the node that owes it must stay engaged until it has
   left, counted, or nobody upstream would wait for it. *)
let test_reliable_deferred_close_keeps_engaged () =
  let opts = { Options.default with Options.ack_timeout = 0.05 } in
  let timers = ref [] in
  let rt, node, outbox = make_runtime ~opts middle_config in
  let rt = { rt with Runtime.schedule = (fun ~delay:_ action -> timers := action :: !timers) } in
  node.Node.relay <- Some (Codb_core.Relay.create ());
  (* engaged by up: the data to down is counted and in flight *)
  Update.handle rt ~src:(peer "up") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let data_seq =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Seq { seq; inner = Payload.Update_data _ } -> Some seq
        | _ -> None)
      (drain outbox)
  in
  (* up closes from_up: the close of to_down waits behind the data *)
  Update.handle rt ~src:(peer "up") ~bytes:30 (close_of "from_up");
  let _ = drain outbox in
  (* down acknowledges the request and the data before the transport
     settles the data *)
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check int) "deficit clear" 0 (state node).Update_state.ust_deficit;
  Alcotest.(check bool) "still engaged: a close is owed" true
    (state node).Update_state.ust_engaged;
  Alcotest.(check int) "nothing sent" 0 (List.length (drain outbox));
  Codb_core.Reliable.on_ack rt (Option.get data_seq);
  Alcotest.(check bool) "the close leaves, counted" true
    (match drain outbox with
    | [ { dst = "down"; payload = Payload.Seq { inner = Payload.Update_link_closed _; _ } } ] ->
        true
    | _ -> false);
  Alcotest.(check bool) "still engaged until it is acked" true
    (state node).Update_state.ust_engaged;
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check bool) "then disengaged" false (state node).Update_state.ust_engaged


let suite =
  [
    Alcotest.test_case "data to the parent is not acked" `Quick
      test_data_to_parent_not_acked;
    Alcotest.test_case "data to a non-parent is acked" `Quick test_data_to_non_parent_acked;
    Alcotest.test_case "a close carrying an ack" `Quick test_close_carrying_ack;
    Alcotest.test_case "the last close carries the ack" `Quick
      test_last_close_carries_the_ack;
    Alcotest.test_case "re-engaged node elides only to its new parent" `Quick
      test_reengaged_elides_only_to_new_parent;
    Alcotest.test_case "no-ack message to a stateless node" `Quick
      (test_no_ack_to_unengaged_node ~crash:false);
    Alcotest.test_case "no-ack message after a crash and restart" `Quick
      (test_no_ack_to_unengaged_node ~crash:true);
    Alcotest.test_case "no-ack message to a disengaged node" `Quick
      test_no_ack_to_disengaged_node;
    Alcotest.test_case "reliable: the ack waits for settlement" `Quick
      test_reliable_ack_waits_for_settlement;
    Alcotest.test_case "reliable: a deferred close keeps the node engaged" `Quick
      test_reliable_deferred_close_keeps_engaged;
    Alcotest.test_case "first contact floods and serves" `Quick
      test_first_contact_floods_and_serves;
    Alcotest.test_case "late data after termination" `Quick
      test_late_data_after_termination_absorbed;
    Alcotest.test_case "stray acks ignored" `Quick test_ack_for_unknown_update_ignored;
    Alcotest.test_case "terminated states keep no tables" `Quick
      test_terminated_states_keep_no_tables;
    Alcotest.test_case "late messages after release send nothing" `Quick
      test_late_messages_after_release;
    Alcotest.test_case "a give-up voids the watermark" `Quick
      test_give_up_voids_the_watermark;
    Alcotest.test_case "quiescence releases the sent filters" `Quick
      test_released_on_initiator_quiescence;
    Alcotest.test_case "terminated flood releases the sent filters" `Quick
      test_released_on_terminated_flood;
    Alcotest.test_case "forced termination releases the sent filters" `Quick
      test_released_on_forced_termination;
    Alcotest.test_case "duplicate requests acked immediately" `Quick
      test_duplicate_request_acked_immediately;
    Alcotest.test_case "a rules file replaces a link's rule mid-update" `Quick
      test_rules_change_mid_update;
    Alcotest.test_case "disengagement acks the parent" `Quick
      test_disengage_acks_parent_when_deficit_clears;
    Alcotest.test_case "re-engagement in cycles" `Quick test_reengagement_after_disengage;
    Alcotest.test_case "initiator detects termination" `Quick
      test_initiator_detects_termination;
    Alcotest.test_case "the initiator skips a done subtree" `Quick
      test_initiator_skips_done_subtree;
    Alcotest.test_case "a relay skips a done subtree" `Quick test_relay_skips_done_subtree;
    Alcotest.test_case "a done subtree terminates at disengagement" `Quick
      test_done_subtree_terminates_at_disengagement;
    Alcotest.test_case "an immediate ack keeps the done bit clear" `Quick
      test_immediate_ack_keeps_the_bit_clear;
    Alcotest.test_case "an open link keeps the done bit clear" `Quick
      test_open_link_keeps_the_bit_clear;
    Alcotest.test_case "a scoped update never reports done" `Quick
      test_scoped_never_reports_done;
    Alcotest.test_case "a tree delivers no terminated" `Quick test_tree_delivers_no_terminated;
    Alcotest.test_case "a ring floods, its pendant chain is skipped" `Quick
      test_ring_floods_and_skips_the_chain;
    Alcotest.test_case "a done subtree ships only the delta next time" `Quick
      test_done_subtree_ships_only_the_delta;
    Alcotest.test_case "a chain replies once per edge and update" `Quick
      test_chain_replies_once_per_update;
    Alcotest.test_case "terminated flood closes links" `Quick
      test_terminated_flood_closes_links;
    Alcotest.test_case "link closure cascades" `Quick test_link_closed_cascades;
    Alcotest.test_case "scoped request activates one link" `Quick
      test_scoped_request_activates_one_link;
  ]
