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

let is_ack m = match m.payload with Payload.Update_ack _ -> true | _ -> false

let is_request m =
  match m.payload with Payload.Update_request _ -> true | _ -> false

let is_data m = match m.payload with Payload.Update_data _ -> true | _ -> false

let is_terminated m =
  match m.payload with Payload.Update_terminated _ -> true | _ -> false

let state node = Option.get (Node.update_state node uid)

let test_first_contact_floods_and_serves () =
  let rt, node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let messages = drain outbox in
  (* floods the request to the other acquaintance (up), serves its
     incoming link to down with local data, and does NOT ack yet: the
     engaging message is acknowledged on disengagement *)
  Alcotest.(check int) "one request forwarded" 1 (count is_request messages);
  Alcotest.(check bool) "forwarded to up" true
    (List.exists (fun m -> is_request m && m.dst = "up") messages);
  Alcotest.(check int) "initial data to down" 1 (count is_data messages);
  Alcotest.(check int) "no ack yet" 0 (count is_ack messages);
  let st = state node in
  Alcotest.(check bool) "engaged" true st.Update_state.ust_engaged;
  Alcotest.(check int) "deficit = messages owed" 2 st.Update_state.ust_deficit

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
  (* acknowledge both messages "me" sent (the forwarded request and
     the data) *)
  Update.handle rt ~src:(peer "up") ~bytes:20 (Payload.Update_ack { update_id = uid });
  Alcotest.(check int) "still engaged at deficit 1" 1
    (state node).Update_state.ust_deficit;
  Alcotest.(check int) "nothing sent" 0 (List.length (drain outbox));
  Update.handle rt ~src:(peer "down") ~bytes:20 (Payload.Update_ack { update_id = uid });
  let messages = drain outbox in
  Alcotest.(check bool) "disengaged" false (state node).Update_state.ust_engaged;
  Alcotest.(check bool) "parent acked" true
    (match messages with [ m ] -> is_ack m && m.dst = "down" | _ -> false)

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
    (Payload.Update_data
       { update_id = uid; rule_id = "from_up"; rows = packed [ tup [ i 2 ] ]; hops = 1;
         global = true });
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
  Alcotest.(check int) "terminated flood to both" 2 (count is_terminated messages)

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
  Alcotest.(check int) "flood forwarded to up only" 1 (count is_terminated messages);
  (* a second terminated is absorbed silently *)
  Update.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Update_terminated { update_id = uid });
  Alcotest.(check int) "no re-flood" 0 (List.length (drain outbox))

let test_link_closed_cascades () =
  let rt, _node, outbox = make_runtime middle_config in
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.Global });
  let _ = drain outbox in
  (* up closes me's only outgoing link; me's incoming link to down
     depends on it, so me must cascade the closure to down *)
  Update.handle rt ~src:(peer "up") ~bytes:30
    (Payload.Update_link_closed { update_id = uid; rule_id = "from_up"; global = true });
  let messages = drain outbox in
  Alcotest.(check bool) "closure cascaded to down" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Update_link_closed { rule_id = "to_down"; _ } -> m.dst = "down"
         | _ -> false)
       messages)

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
    (Payload.Update_data
       { update_id = uid; rule_id = "from_up"; rows = packed [ tup [ i 9 ] ]; hops = 1;
         global = true });
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
    (Payload.Update_data
       { update_id = uid; rule_id = "from_up"; rows = packed [ tup [ i 9 ] ]; hops = 1;
         global = true });
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

let state_tables_empty msg (st : Update_state.t) =
  Alcotest.(check bool) (msg ^ ": tables released") true
    (Option.is_none st.Update_state.ust_live);
  Alcotest.(check int) (msg ^ ": nothing pending") 0 (Update_state.pending_tuples st);
  List.iter
    (fun rule ->
      Alcotest.(check bool) (msg ^ ": " ^ rule ^ " inactive") false
        (Update_state.is_active_in st rule || Update_state.is_active_out st rule))
    [ "to_down"; "from_up" ]

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
  let is_close m =
    match m.payload with Payload.Update_link_closed _ -> true | _ -> false
  in
  Update.handle rt ~src:(peer "up") ~bytes:30
    (Payload.Update_link_closed { update_id = uid; rule_id = "from_up"; global = true });
  Update.handle rt ~src:(peer "up") ~bytes:50
    (Payload.Update_data
       { update_id = uid; rule_id = "from_up"; rows = packed [ tup [ i 9 ] ]; hops = 1;
         global = true });
  Update.handle rt ~src:(peer "down") ~bytes:100
    (Payload.Update_request { update_id = uid; scope = Payload.For_rule "to_down" });
  let messages = drain outbox in
  Alcotest.(check int) "no data" 0 (count is_data messages);
  Alcotest.(check int) "no close" 0 (count is_close messages);
  Alcotest.(check int) "no request" 0 (count is_request messages);
  state_tables_empty "after late messages" (state node)

(* The tuples served on [to_down], framed by the reliable transport or
   not. *)
let served_to_down messages =
  List.concat_map
    (fun m ->
      match m.payload with
      | Payload.Update_data { rule_id = "to_down"; rows; _ }
      | Payload.Seq
          { inner = Payload.Update_data { rule_id = "to_down"; rows; _ }; _ } ->
          boxed rows
      | _ -> [])
    messages

(* A transport give-up on data to an importer voids the link's
   watermark: the next first contact serves the link in full. *)
let test_give_up_voids_the_watermark () =
  let opts = { Options.default with Options.ack_timeout = 0.05; max_retries = 0 } in
  let rt, node, outbox = make_runtime ~opts middle_config in
  let serve n =
    Update.handle rt ~src:(peer "down") ~bytes:100
      (Payload.Update_request
         { update_id = Ids.update_id (peer "origin") n; scope = Payload.Global })
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

let suite =
  [
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
    Alcotest.test_case "disengagement acks the parent" `Quick
      test_disengage_acks_parent_when_deficit_clears;
    Alcotest.test_case "re-engagement in cycles" `Quick test_reengagement_after_disengage;
    Alcotest.test_case "initiator detects termination" `Quick
      test_initiator_detects_termination;
    Alcotest.test_case "terminated flood closes links" `Quick
      test_terminated_flood_closes_links;
    Alcotest.test_case "link closure cascades" `Quick test_link_closed_cascades;
    Alcotest.test_case "scoped request activates one link" `Quick
      test_scoped_request_activates_one_link;
  ]
