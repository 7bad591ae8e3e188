(* White-box tests of the query-answering diffusion, driving
   [Query_engine.handle] directly through a stub runtime. *)

open Helpers
module Query_engine = Codb_core.Query_engine
module Node = Codb_core.Node
module Runtime = Codb_core.Runtime
module Options = Codb_core.Options
module Payload = Codb_core.Payload
module Ids = Codb_core.Ids
module Query_state = Codb_core.Query_state
module Sent_filter = Codb_core.Sent_filter
module System = Codb_core.System
module Topology = Codb_core.Topology
module Peer_id = Codb_net.Peer_id
module Wrapper = Codb_core.Wrapper
module Stats = Codb_core.Stats

let middle_config =
  {|
node down { relation r(x: int); }
node me { relation r(x: int); fact r(1); }
node up { relation r(x: int); fact r(2); }
rule to_down at down: r(x) <- me: r(x);
rule from_up at me: r(x) <- up: r(x);
|}

type sent = { dst : string; payload : Payload.t }

let make_runtime ?(name = "me") ?(opts = Options.default)
    ?(schedule = fun ~delay:_ action -> action ()) config_text =
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
      schedule;
      connect = (fun _ -> ());
      disconnect = (fun _ -> ());
      neighbours = (fun () -> []);
    }
  in
  (rt, node, outbox)

let drain outbox =
  let m = List.rev !outbox in
  outbox := [];
  m

let qid = Ids.query_id (Peer_id.of_string "down") 1

let peer = Peer_id.of_string

let request ?(label = [ peer "down" ]) ?(constraints = Payload.Specialize.any) ~ref_
    rule_id =
  Payload.Query_request { query_id = qid; request_ref = ref_; rule_id; label; constraints }

let test_responder_serves_and_fans_out () =
  let rt, _, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q1" "to_down");
  let messages = drain outbox in
  (* initial answers from local data to the requester *)
  Alcotest.(check bool) "initial data" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Query_data { request_ref = "q1"; rows; _ } ->
             m.dst = "down" && List.length rows = 1
         | _ -> false)
       messages);
  (* a sub-request to up, labelled with the extended path *)
  Alcotest.(check bool) "sub-request labelled" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Query_request { rule_id = "from_up"; label; _ } ->
             m.dst = "up"
             && List.map Peer_id.to_string label = [ "down"; "me" ]
         | _ -> false)
       messages);
  (* not done yet: a sub-request is pending *)
  Alcotest.(check int) "no done yet" 0
    (List.length
       (List.filter
          (fun m -> match m.payload with Payload.Query_done _ -> true | _ -> false)
          messages))

let test_label_stops_fan_out () =
  (* the requester chain already visited "up": no sub-request may go
     back there, so the responder answers and completes immediately *)
  let rt, _, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80
    (request ~label:[ peer "up"; peer "down" ] ~ref_:"q2" "to_down");
  let messages = drain outbox in
  Alcotest.(check int) "no sub-requests" 0
    (List.length
       (List.filter
          (fun m -> match m.payload with Payload.Query_request _ -> true | _ -> false)
          messages));
  Alcotest.(check bool) "done sent" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Query_done { request_ref = "q2"; _ } -> m.dst = "down"
         | _ -> false)
       messages)

let test_streams_deltas_then_done () =
  let rt, _, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q3" "to_down");
  let first = drain outbox in
  let sub_ref =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Query_request { request_ref; _ } -> Some request_ref
        | _ -> None)
      first
    |> Option.get
  in
  (* up answers with new data: integrated into the overlay, the fresh
     derivation streams to down *)
  Query_engine.handle rt ~src:(peer "up") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up";
         rows = packed [ tup [ i 2 ] ] });
  let after_data = drain outbox in
  Alcotest.(check bool) "delta forwarded" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Query_data { request_ref = "q3"; rows; _ } ->
             m.dst = "down" && List.exists (Tuple.equal (tup [ i 2 ])) (boxed rows)
         | _ -> false)
       after_data);
  (* duplicate data is not re-forwarded *)
  Query_engine.handle rt ~src:(peer "up") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up";
         rows = packed [ tup [ i 2 ] ] });
  Alcotest.(check int) "duplicate suppressed" 0 (List.length (drain outbox));
  (* the sub-query completes: the responder signals done upstream *)
  Query_engine.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up"; complete = true;
         rows = [] });
  let final = drain outbox in
  Alcotest.(check bool) "done propagated" true
    (List.exists
       (fun m ->
         match m.payload with
         | Payload.Query_done { request_ref = "q3"; _ } -> m.dst = "down"
         | _ -> false)
       final)

let test_unknown_rule_answers_done () =
  let rt, _, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q4" "no_such_rule");
  match drain outbox with
  | [ { dst = "down"; payload = Payload.Query_done { request_ref = "q4"; _ } } ] -> ()
  | _ -> Alcotest.fail "expected an immediate done"

let test_stale_messages_ignored () =
  let rt, _, outbox = make_runtime middle_config in
  (* data and done for a reference never issued *)
  Query_engine.handle rt ~src:(peer "up") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = "ghost"; rule_id = "from_up";
         rows = packed [ tup [ i 7 ] ] });
  Query_engine.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = "ghost"; rule_id = "from_up"; complete = true;
         rows = [] });
  Alcotest.(check int) "nothing sent" 0 (List.length (drain outbox))

(* Completion releases what an instance holds: a finished responder
   leaves the node's table, and a root stays, closed and with its
   overlay released, because [Query_engine.result] reads it.  After a
   diffusion over a chain only the root is left. *)
let test_closed_instances_release_overlays () =
  let sys = System.build_exn (Topology.generate ~seed:42 Topology.Chain ~n:5) in
  let outcome = System.run_query sys ~at:"n0" (parse_query "ans(x, y) <- data(x, y)") in
  Alcotest.(check bool) "answers" true (outcome.System.qo_answers <> []);
  let instances = ref 0 in
  List.iter
    (fun name ->
      Hashtbl.iter
        (fun ref_ (st : Query_state.t) ->
          incr instances;
          Alcotest.(check bool) (ref_ ^ " is a root") true
            (match st.Query_state.qst_kind with
            | Query_state.Root _ -> true
            | Query_state.Responder _ -> false);
          Alcotest.(check bool) (ref_ ^ " closed") true st.Query_state.qst_closed;
          Alcotest.(check int) (ref_ ^ " overlay empty") 0
            (Database.cardinal st.Query_state.qst_overlay))
        (System.node sys name).Node.query_instances)
    (System.node_names sys);
  Alcotest.(check int) "only the root" 1 !instances

let first_sub_ref outbox =
  List.find_map
    (fun m ->
      match m.payload with
      | Payload.Query_request { request_ref; _ } -> Some request_ref
      | _ -> None)
    (drain outbox)
  |> Option.get

(* Data that arrives after an instance finished (here through a routing
   entry that outlived its sub-request) sends nothing: a finished
   responder is gone, and a closed root integrates nothing into its
   released overlay. *)
let test_late_data_for_closed_instance () =
  let rt, node, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q5" "to_down");
  let sub_ref = first_sub_ref outbox in
  Query_engine.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up"; complete = true;
         rows = [] });
  ignore (drain outbox);
  Alcotest.(check bool) "finished responder gone" true
    (Hashtbl.find_opt node.Node.query_instances "q5" = None);
  let late ~owner =
    Hashtbl.replace node.Node.sub_refs sub_ref owner;
    Query_engine.handle rt ~src:(peer "up") ~bytes:60
      (Payload.Query_data
         { query_id = qid; request_ref = sub_ref; rule_id = "from_up";
           rows = packed [ tup [ i 9 ] ] });
    Alcotest.(check int) ("nothing sent for " ^ owner) 0 (List.length (drain outbox))
  in
  late ~owner:"q5";
  let root_ref = Query_engine.start rt qid (parse_query "ans(x) <- r(x)") in
  let root_sub = first_sub_ref outbox in
  Query_engine.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = root_sub; rule_id = "from_up"; complete = true;
         rows = [] });
  let root = Hashtbl.find node.Node.query_instances root_ref in
  let module Q = Query_state in
  Alcotest.(check bool) "root closed" true root.Q.qst_closed;
  Alcotest.(check int) "root overlay released" 0 (Database.cardinal root.Q.qst_overlay);
  Alcotest.(check bool) "root rule released" true (Option.is_none root.Q.qst_rule);
  late ~owner:root_ref;
  Alcotest.(check int) "root overlay still empty" 0 (Database.cardinal root.Q.qst_overlay);
  check_tuples "root answer unchanged" [ tup [ i 1 ] ]
    (boxed (Option.get (Query_engine.result node root_ref)))

(* A root streams the answers each delta enables only to a listener:
   with none, delivered data is integrated into the overlay and nothing
   is evaluated until completion, which answers the same. *)
let root_outcome ?on_answer () =
  let rt, node, outbox = make_runtime ~name:"down" middle_config in
  let root_ref = Query_engine.start ?on_answer rt qid (parse_query "ans(x) <- r(x)") in
  let sub_ref =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Query_request { request_ref; _ } -> Some request_ref
        | _ -> None)
      (drain outbox)
    |> Option.get
  in
  let before = Eval.counters () in
  Query_engine.handle rt ~src:(peer "me") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = sub_ref; rule_id = "to_down";
         rows = packed [ tup [ i 1 ]; tup [ i 2 ] ] });
  let evaluated = Eval.counters () <> before in
  Query_engine.handle rt ~src:(peer "me") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = sub_ref; rule_id = "to_down"; complete = true;
         rows = [] });
  (evaluated, boxed (Option.get (Query_engine.result node root_ref)))

(* Nor does a root with no listener evaluate its local answers at
   [start]: nobody hears them, and completion evaluates the overlay. *)
let test_unheard_root_starts_without_evaluating () =
  let start ?on_answer () =
    let rt, node, outbox = make_runtime middle_config in
    let before = Eval.counters () in
    let root_ref = Query_engine.start ?on_answer rt qid (parse_query "ans(x) <- r(x)") in
    let evaluated = Eval.counters () <> before in
    let sub_ref = first_sub_ref outbox in
    Query_engine.handle rt ~src:(peer "up") ~bytes:60
      (Payload.Query_data
         { query_id = qid; request_ref = sub_ref; rule_id = "from_up";
           rows = packed [ tup [ i 2 ] ] });
    Query_engine.handle rt ~src:(peer "up") ~bytes:20
      (Payload.Query_done
         { query_id = qid; request_ref = sub_ref; rule_id = "from_up"; complete = true;
           rows = [] });
    (evaluated, boxed (Option.get (Query_engine.result node root_ref)))
  in
  let heard = ref [] in
  let heard_evaluated, heard_answers =
    start ~on_answer:(fun ts -> heard := ts @ !heard) ()
  in
  let evaluated, answers = start () in
  Alcotest.(check bool) "a listener hears the local answers at once" true heard_evaluated;
  Alcotest.(check bool) "no listener: counters unchanged at start" false evaluated;
  check_tuples "same final answers" heard_answers answers;
  check_tuples "final answers" [ tup [ i 1 ]; tup [ i 2 ] ] answers

let test_unheard_root_evaluates_nothing_on_data () =
  let streamed = ref [] in
  let heard_evaluated, heard =
    root_outcome ~on_answer:(fun ts -> streamed := ts @ !streamed) ()
  in
  let evaluated, answers = root_outcome () in
  Alcotest.(check bool) "a listener's delta is evaluated" true heard_evaluated;
  check_tuples "the listener heard the data" [ tup [ i 1 ]; tup [ i 2 ] ] (boxed !streamed);
  Alcotest.(check bool) "no listener: counters unchanged" false evaluated;
  check_tuples "same final answers" heard answers;
  check_tuples "final answers" [ tup [ i 1 ]; tup [ i 2 ] ] answers

(* Two children send overlapping data: distinct rows in the overlay
   whose heads coincide upstream.  The responder's rule projects into
   its sent set, so each head reaches the requester once. *)
let test_overlapping_children_forward_once () =
  let rt, _, outbox =
    make_runtime
      {|
node down { relation q(x: int); }
node me { relation r(x: int, y: int); fact r(1, 0); }
node up1 { relation r(x: int, y: int); }
node up2 { relation r(x: int, y: int); }
rule to_down at down: q(x) <- me: r(x, y);
rule from_up1 at me: r(x, y) <- up1: r(x, y);
rule from_up2 at me: r(x, y) <- up2: r(x, y);
|}
  in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q6" "to_down");
  let first = drain outbox in
  let sub_ref child =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Query_request { request_ref; _ } when m.dst = child -> Some request_ref
        | _ -> None)
      first
    |> Option.get
  in
  let forwarded messages =
    List.concat_map
      (fun m ->
        match m.payload with
        | Payload.Query_data { request_ref = "q6"; rows; _ } when m.dst = "down" ->
            [ boxed rows ]
        | _ -> [])
      messages
  in
  let data child rule_id rows =
    Query_engine.handle rt ~src:(peer child) ~bytes:60
      (Payload.Query_data
         { query_id = qid; request_ref = sub_ref child; rule_id; rows = packed rows });
    forwarded (drain outbox)
  in
  Alcotest.(check (list (list tuple_testable))) "local answer first" [ [ tup [ i 1 ] ] ]
    (forwarded first);
  Alcotest.(check (list (list tuple_testable))) "up1's heads" [ [ tup [ i 2 ]; tup [ i 3 ] ] ]
    (data "up1" "from_up1" [ tup [ i 2; i 1 ]; tup [ i 3; i 1 ] ]);
  Alcotest.(check (list (list tuple_testable))) "up2's only new head" [ [ tup [ i 4 ] ] ]
    (data "up2" "from_up2" [ tup [ i 3; i 2 ]; tup [ i 4; i 2 ]; tup [ i 1; i 2 ] ]);
  Alcotest.(check (list (list tuple_testable))) "nothing new from up1" []
    (data "up1" "from_up1" [ tup [ i 4; i 1 ]; tup [ i 2; i 5 ] ])

(* An update that commits at a node after a query instance started
   there stays out of that query (the paper's query-scoped overlay):
   the instance answers from the store as it stood when it started,
   both in what it streams and in what a later delta joins against.
   The commit is the update protocol's integration step on the
   store. *)
let isolation_config =
  {|
node down { relation q(x: int); }
node me { relation r(x: int, y: int); relation s(y: int); fact r(1, 1); fact s(1); }
node up { relation r(x: int, y: int); }
rule to_down at down: q(x) <- me: r(x, y), s(y);
rule from_up at me: r(x, y) <- up: r(x, y);
|}

let commit rt (node : Node.t) rel rows =
  let integration =
    Wrapper.integrate ~opts:rt.Runtime.opts ~rule_id:"update" node.Node.store ~rel (packed rows)
  in
  Alcotest.(check int) ("committed into " ^ rel) (List.length rows)
    (List.length integration.Wrapper.fresh)

let forwarded_to_down ref_ messages =
  List.concat_map
    (fun m ->
      match m.payload with
      | Payload.Query_data { request_ref; rows; _ } when request_ref = ref_ && m.dst = "down" ->
          [ boxed rows ]
      | _ -> [])
    messages

let test_update_after_start_stays_invisible () =
  let rt, node, outbox = make_runtime isolation_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q7" "to_down");
  let first = drain outbox in
  Alcotest.(check (list (list tuple_testable))) "local answer" [ [ tup [ i 1 ] ] ]
    (forwarded_to_down "q7" first);
  let sub_ref =
    List.find_map
      (fun m ->
        match m.payload with
        | Payload.Query_request { request_ref; _ } -> Some request_ref
        | _ -> None)
      first
    |> Option.get
  in
  commit rt node "s" [ tup [ i 2 ] ];
  commit rt node "r" [ tup [ i 9; i 1 ] ];
  Query_engine.handle rt ~src:(peer "up") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up";
         rows = packed [ tup [ i 5; i 2 ]; tup [ i 6; i 1 ] ] });
  Alcotest.(check (list (list tuple_testable)))
    "the delta joins the store as it was: no s(2), no r(9, 1)" [ [ tup [ i 6 ] ] ]
    (forwarded_to_down "q7" (drain outbox));
  Query_engine.handle rt ~src:(peer "up") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = sub_ref; rule_id = "from_up"; complete = true;
         rows = [] });
  Alcotest.(check (list (list tuple_testable))) "nothing more before done" []
    (forwarded_to_down "q7" (drain outbox));
  (* an instance started after the commit sees it *)
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"q8" "to_down");
  Alcotest.(check (list (list tuple_testable))) "a later query's local answers"
    [ [ tup [ i 1 ]; tup [ i 9 ] ] ]
    (forwarded_to_down "q8" (drain outbox));
  (* the root: completion evaluates the overlay, not the store *)
  let rt, node, outbox = make_runtime ~name:"down" isolation_config in
  let root_ref = Query_engine.start rt qid (parse_query "ans(x) <- q(x)") in
  let root_sub = first_sub_ref outbox in
  commit rt node "q" [ tup [ i 7 ] ];
  Query_engine.handle rt ~src:(peer "me") ~bytes:60
    (Payload.Query_data
       { query_id = qid; request_ref = root_sub; rule_id = "to_down"; rows = packed [ tup [ i 1 ] ] });
  Query_engine.handle rt ~src:(peer "me") ~bytes:20
    (Payload.Query_done
       { query_id = qid; request_ref = root_sub; rule_id = "to_down"; complete = true;
         rows = [] });
  check_tuples "the root's answers leave out q(7)" [ tup [ i 1 ] ]
    (boxed (Option.get (Query_engine.result node root_ref)));
  Alcotest.(check int) "the store holds it" 1 (Database.cardinal node.Node.store)

(* How a stream ends: the rows a responder derives once every
   sub-request is done ride its [Query_done]; a responder still waiting
   on a sub-request streams them as [Query_data]. *)
let rows_of_done ref_ m =
  match m with
  | { dst = "down";
      payload = Payload.Query_done { request_ref; rows; complete = true; _ } }
    when request_ref = ref_ ->
      Some (boxed rows)
  | _ -> None

let sub_ref_in messages =
  List.find_map
    (fun m ->
      match m.payload with
      | Payload.Query_request { request_ref; _ } -> Some request_ref
      | _ -> None)
    messages
  |> Option.get

let done_from_up ?(rule_id = "from_up") ~sub_ref rows =
  Payload.Query_done
    { query_id = qid; request_ref = sub_ref; rule_id; complete = true;
      rows = packed rows }

let test_leaf_answers_ride_done () =
  let rt, _, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80
    (request ~label:[ peer "up"; peer "down" ] ~ref_:"l1" "to_down");
  match drain outbox with
  | [ m ] ->
      Alcotest.(check (option (list tuple_testable))) "one done carrying the answer"
        (Some [ tup [ i 1 ] ]) (rows_of_done "l1" m)
  | ms -> Alcotest.failf "expected one message, got %d" (List.length ms)

let test_last_rows_ride_done () =
  let rt, node, outbox = make_runtime middle_config in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"l2" "to_down");
  let first = drain outbox in
  Alcotest.(check (list (list tuple_testable))) "local rows stream as data"
    [ [ tup [ i 1 ] ] ] (forwarded_to_down "l2" first);
  Alcotest.(check int) "no done while up is pending" 0
    (List.length (List.filter_map (rows_of_done "l2") first));
  let sub_ref = sub_ref_in first in
  Query_engine.handle rt ~src:(peer "up") ~bytes:30
    (done_from_up ~sub_ref [ tup [ i 2 ] ]);
  (match drain outbox with
  | [ m ] ->
      Alcotest.(check (option (list tuple_testable))) "the derived row rides the done"
        (Some [ tup [ i 2 ] ]) (rows_of_done "l2" m)
  | ms -> Alcotest.failf "expected one message, got %d" (List.length ms));
  (* the requester-side statistics count the done as one data message *)
  let qs = Option.get (Stats.find_query node.Node.stats qid) in
  Alcotest.(check int) "one data message in" 1 qs.Stats.qs_data_msgs;
  Alcotest.(check int) "its bytes are answer bytes" 30 qs.Stats.qs_bytes_in

(* Under the reliable transport a done claims completeness only once
   the data before it has settled, so rows derived once every
   sub-request is done wait with it: nothing leaves until the earlier
   data's ack, and then one done carries them. *)
let test_held_rows_wait_for_settled_data () =
  (* no timer fires: a retransmission or a deadline would only blur
     what the ack alone releases *)
  let rt, node, outbox =
    make_runtime
      ~opts:{ Options.default with Options.ack_timeout = 0.05 }
      ~schedule:(fun ~delay:_ _ -> ())
      middle_config
  in
  node.Node.relay <- Some (Codb_core.Relay.create ());
  let unframe = function
    | { dst; payload = Payload.Seq { seq; inner } } -> (seq, { dst; payload = inner })
    | m -> Alcotest.failf "unframed %s" (Payload.describe m.payload)
  in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80 (request ~ref_:"l3" "to_down");
  let first = List.map unframe (drain outbox) in
  let data_seq =
    List.find_map
      (fun (seq, m) ->
        match m.payload with
        | Payload.Query_data { request_ref = "l3"; _ } -> Some seq
        | _ -> None)
      first
    |> Option.get
  in
  let sub_ref = sub_ref_in (List.map snd first) in
  Query_engine.handle rt ~src:(peer "up") ~bytes:30
    (done_from_up ~sub_ref [ tup [ i 2 ] ]);
  Alcotest.(check int) "held while the local data is unsettled" 0
    (List.length (drain outbox));
  Codb_core.Reliable.on_ack rt data_seq;
  match List.map unframe (drain outbox) with
  | [ (_, m) ] ->
      Alcotest.(check (option (list tuple_testable))) "then the done carries the row"
        (Some [ tup [ i 2 ] ]) (rows_of_done "l3" m);
      Alcotest.(check bool) "and the responder is finished" true
        (Hashtbl.find_opt node.Node.query_instances "l3" = None)
  | ms -> Alcotest.failf "expected one message, got %d" (List.length ms)

(* A done whose instance is closed changes nothing, rows or not; its
   routing entry goes all the same. *)
let test_done_rows_for_closed_instance () =
  let rt, node, outbox = make_runtime ~name:"down" middle_config in
  let root_ref = Query_engine.start rt qid (parse_query "ans(x) <- r(x)") in
  let sub_ref = first_sub_ref outbox in
  Query_engine.handle rt ~src:(peer "me") ~bytes:30
    (done_from_up ~rule_id:"to_down" ~sub_ref [ tup [ i 1 ] ]);
  let root = Hashtbl.find node.Node.query_instances root_ref in
  Alcotest.(check bool) "root closed" true root.Query_state.qst_closed;
  Hashtbl.replace node.Node.sub_refs sub_ref root_ref;
  Query_engine.handle rt ~src:(peer "me") ~bytes:30
    (done_from_up ~rule_id:"to_down" ~sub_ref [ tup [ i 9 ] ]);
  Alcotest.(check bool) "the sub-reference is removed" false
    (Hashtbl.mem node.Node.sub_refs sub_ref);
  Alcotest.(check int) "the released overlay stays empty" 0
    (Database.cardinal root.Query_state.qst_overlay);
  Alcotest.(check int) "nothing sent" 0 (List.length (drain outbox));
  check_tuples "the answer is the one before the close" [ tup [ i 1 ] ]
    (boxed (Option.get (Query_engine.result node root_ref)))

(* Pushed constraints filter a done's rows as they filter data: a row
   the constraint rules out never rides a done. *)
let test_filtered_rows_never_ride_done () =
  let rt, node, outbox =
    make_runtime
      {|
node down { relation r(x: int); }
node me { relation r(x: int); fact r(1); fact r(5); }
node up { relation r(x: int); }
rule to_down at down: r(x) <- me: r(x);
rule from_up at me: r(x) <- up: r(x);
|}
  in
  (* a disjunction: folded into no rule body, so only the output
     filter enforces it *)
  let x_is v =
    Payload.Specialize.{ p_left = Col 0; p_op = Codb_cq.Query.Eq; p_right = Const (i v) }
  in
  let constraints = Payload.Specialize.One_of [ [ x_is 1 ]; [ x_is 3 ] ] in
  Query_engine.handle rt ~src:(peer "down") ~bytes:80
    (request ~constraints ~ref_:"l4" "to_down");
  let first = drain outbox in
  Alcotest.(check (list (list tuple_testable))) "r(5) filtered from the local rows"
    [ [ tup [ i 1 ] ] ] (forwarded_to_down "l4" first);
  let sub_ref = sub_ref_in first in
  Query_engine.handle rt ~src:(peer "up") ~bytes:30
    (done_from_up ~sub_ref [ tup [ i 3 ]; tup [ i 6 ] ]);
  (match drain outbox with
  | [ m ] ->
      Alcotest.(check (option (list tuple_testable))) "r(6) never rides the done"
        (Some [ tup [ i 3 ] ]) (rows_of_done "l4" m)
  | ms -> Alcotest.failf "expected one message, got %d" (List.length ms));
  let qs = Option.get (Stats.find_query node.Node.stats qid) in
  Alcotest.(check int) "both withheld rows counted" 2 qs.Stats.qs_filtered_at_source

let suite =
  [
    Alcotest.test_case "responder serves and fans out" `Quick
      test_responder_serves_and_fans_out;
    Alcotest.test_case "labels stop the fan-out" `Quick test_label_stops_fan_out;
    Alcotest.test_case "deltas stream, then done" `Quick test_streams_deltas_then_done;
    Alcotest.test_case "unknown rule answers done" `Quick test_unknown_rule_answers_done;
    Alcotest.test_case "stale messages ignored" `Quick test_stale_messages_ignored;
    Alcotest.test_case "overlapping children forward each row once" `Quick
      test_overlapping_children_forward_once;
    Alcotest.test_case "an update after a query starts stays out of it" `Quick
      test_update_after_start_stays_invisible;
    Alcotest.test_case "closed instances release overlays" `Quick
      test_closed_instances_release_overlays;
    Alcotest.test_case "late data for a closed instance" `Quick
      test_late_data_for_closed_instance;
    Alcotest.test_case "a root with no listener evaluates nothing on data" `Quick
      test_unheard_root_evaluates_nothing_on_data;
    Alcotest.test_case "a root with no listener evaluates nothing at start" `Quick
      test_unheard_root_starts_without_evaluating;
    Alcotest.test_case "a leaf's answers ride its done" `Quick
      test_leaf_answers_ride_done;
    Alcotest.test_case "local rows stream, the last rows ride the done" `Quick
      test_last_rows_ride_done;
    Alcotest.test_case "rows held for the done wait for earlier data to settle" `Quick
      test_held_rows_wait_for_settled_data;
    Alcotest.test_case "a done with rows for a closed instance" `Quick
      test_done_rows_for_closed_instance;
    Alcotest.test_case "filtered rows never ride a done" `Quick
      test_filtered_rows_never_ride_done;
  ]
