(* Unit tests of the control-plane handlers: discovery probe routing,
   rules-file reconfiguration, and the DBM dispatcher — driven through
   stub runtimes that record outgoing messages. *)

open Helpers
module Node = Codb_core.Node
module Runtime = Codb_core.Runtime
module Options = Codb_core.Options
module Payload = Codb_core.Payload
module Discovery = Codb_core.Discovery
module Reconfigure = Codb_core.Reconfigure
module Dbm = Codb_core.Dbm
module Peer_id = Codb_net.Peer_id
module Message = Codb_net.Message

type sent = { dst : string; payload : Payload.t }

let make_runtime ?(neighbours = []) decl_text name =
  let cfg = parse_config decl_text in
  let decl = Option.get (Config.node cfg name) in
  let node = Node.create decl in
  Node.set_rules node
    ~outgoing:(Config.rules_importing_at cfg name)
    ~incoming:(Config.rules_sourced_at cfg name);
  let outbox = ref [] in
  let connected = ref [] in
  let disconnected = ref [] in
  let rt =
    {
      Runtime.node;
      opts = Options.default;
      send =
        (fun ~dst payload ->
          outbox := { dst = Peer_id.to_string dst; payload } :: !outbox;
          true);
      now = (fun () -> 0.0);
      schedule = (fun ~delay:_ action -> action ());
      connect = (fun p -> connected := Peer_id.to_string p :: !connected);
      disconnect = (fun p -> disconnected := Peer_id.to_string p :: !disconnected);
      neighbours = (fun () -> List.map Peer_id.of_string neighbours);
    }
  in
  (rt, node, outbox, connected, disconnected)

let drain outbox =
  let m = List.rev !outbox in
  outbox := [];
  m

let lonely = "node me { relation r(x: int); }"

(* --- discovery ----------------------------------------------------- *)

let test_probe_answers_and_forwards () =
  let rt, _, outbox, _, _ = make_runtime ~neighbours:[ "a"; "b" ] lonely "me" in
  Discovery.handle rt ~src:(Peer_id.of_string "a")
    (Payload.Discovery_probe
       { probe_id = "p1"; ttl = 1; path = [ Peer_id.of_string "origin"; Peer_id.of_string "a" ] });
  let messages = drain outbox in
  (* one reply routed back along the reverse path (to a), probes
     forwarded to neighbours not on the path (b only) *)
  let replies =
    List.filter (fun m -> match m.payload with Payload.Discovery_reply _ -> true | _ -> false) messages
  in
  let probes =
    List.filter (fun m -> match m.payload with Payload.Discovery_probe _ -> true | _ -> false) messages
  in
  (match replies with
  | [ r ] -> Alcotest.(check string) "reply to previous hop" "a" r.dst
  | _ -> Alcotest.fail "expected one reply");
  match probes with
  | [ p ] -> (
      Alcotest.(check string) "forwarded to b" "b" p.dst;
      match p.payload with
      | Payload.Discovery_probe { ttl; path; _ } ->
          Alcotest.(check int) "ttl decremented" 0 ttl;
          Alcotest.(check int) "path extended" 3 (List.length path)
      | _ -> assert false)
  | _ -> Alcotest.fail "expected one forwarded probe"

let test_probe_ttl_zero_no_forward () =
  let rt, _, outbox, _, _ = make_runtime ~neighbours:[ "a"; "b" ] lonely "me" in
  Discovery.handle rt ~src:(Peer_id.of_string "a")
    (Payload.Discovery_probe { probe_id = "p1"; ttl = 0; path = [ Peer_id.of_string "a" ] });
  let probes =
    List.filter
      (fun m -> match m.payload with Payload.Discovery_probe _ -> true | _ -> false)
      (drain outbox)
  in
  Alcotest.(check int) "no forwarding at ttl 0" 0 (List.length probes)

let test_probe_deduplicated () =
  let rt, _, outbox, _, _ = make_runtime ~neighbours:[ "a" ] lonely "me" in
  let probe =
    Payload.Discovery_probe { probe_id = "p1"; ttl = 3; path = [ Peer_id.of_string "a" ] }
  in
  Discovery.handle rt ~src:(Peer_id.of_string "a") probe;
  let first = List.length (drain outbox) in
  Discovery.handle rt ~src:(Peer_id.of_string "a") probe;
  Alcotest.(check bool) "first handled" true (first > 0);
  Alcotest.(check int) "second ignored" 0 (List.length (drain outbox))

let test_reply_routing () =
  let rt, node, outbox, _, _ = make_runtime lonely "me" in
  (* a reply still in transit: forward to the next hop with the tail *)
  Discovery.handle rt ~src:(Peer_id.of_string "x")
    (Payload.Discovery_reply
       { probe_id = "p1"; path = [ Peer_id.of_string "next"; Peer_id.of_string "origin" ];
         peers = [ Peer_id.of_string "far" ] });
  (match drain outbox with
  | [ { dst = "next"; payload = Payload.Discovery_reply { path; _ } } ] ->
      Alcotest.(check int) "tail forwarded" 1 (List.length path)
  | _ -> Alcotest.fail "expected one forwarded reply");
  (* a reply that reached its origin: absorbed into known peers *)
  Discovery.handle rt ~src:(Peer_id.of_string "x")
    (Payload.Discovery_reply { probe_id = "p1"; path = []; peers = [ Peer_id.of_string "far" ] });
  Alcotest.(check bool) "absorbed" true
    (Peer_id.Set.mem (Peer_id.of_string "far") node.Node.known_peers)

(* --- reconfiguration ----------------------------------------------- *)

let two_node_rules version_rule =
  Printf.sprintf
    {|
node me { relation r(x: int); }
node other { relation r(x: int); }
%s
|}
    version_rule

let test_reconfigure_installs_rules_and_pipes () =
  let rt, node, _, connected, disconnected =
    make_runtime (two_node_rules "") "me"
  in
  let cfg =
    parse_config (two_node_rules "rule imp at me: r(x) <- other: r(x);")
  in
  Alcotest.(check bool) "applied" true (Reconfigure.apply rt ~version:1 cfg);
  Alcotest.(check int) "one outgoing" 1 (List.length node.Node.outgoing);
  Alcotest.(check (list string)) "pipe opened" [ "other" ] !connected;
  Alcotest.(check (list string)) "nothing closed" [] !disconnected;
  Alcotest.(check int) "version bumped" 1 node.Node.rules_version

let test_reconfigure_version_gating () =
  let rt, node, _, _, _ = make_runtime (two_node_rules "") "me" in
  let cfg = parse_config (two_node_rules "rule imp at me: r(x) <- other: r(x);") in
  Alcotest.(check bool) "v2 applied" true (Reconfigure.apply rt ~version:2 cfg);
  Alcotest.(check bool) "v1 rejected" false
    (Reconfigure.apply rt ~version:1 Config.empty);
  Alcotest.(check bool) "v2 again rejected" false
    (Reconfigure.apply rt ~version:2 Config.empty);
  Alcotest.(check int) "rules kept" 1 (List.length node.Node.outgoing)

let test_reconfigure_drops_obsolete_pipes () =
  let rt, node, _, _, disconnected =
    make_runtime (two_node_rules "rule imp at me: r(x) <- other: r(x);") "me"
  in
  Alcotest.(check int) "starts with a rule" 1 (List.length node.Node.outgoing);
  Alcotest.(check bool) "empty rules applied" true
    (Reconfigure.apply rt ~version:1 (parse_config (two_node_rules "")));
  Alcotest.(check int) "rules dropped" 0 (List.length node.Node.outgoing);
  Alcotest.(check (list string)) "pipe closed" [ "other" ] !disconnected

let test_reconfigure_rejects_bad_text () =
  let rt, _, _, _, _ = make_runtime (two_node_rules "") "me" in
  match Reconfigure.handle_text rt ~version:1 "not a config {{{" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage accepted"

(* --- DBM dispatch --------------------------------------------------- *)

let message payload =
  {
    Message.msg_id = 1;
    src = Peer_id.of_string "sp";
    dst = Peer_id.of_string "me";
    sent_at = 0.0;
    size = Payload.encoded_size payload;
    payload;
  }

let test_dbm_stats_request () =
  let rt, _, outbox, _, _ = make_runtime lonely "me" in
  Dbm.handle rt (message Payload.Stats_request);
  match drain outbox with
  | [ { dst = "sp"; payload = Payload.Stats_response { stats } } ] ->
      Alcotest.(check string) "snapshot owner" "me"
        (Peer_id.to_string stats.Codb_core.Stats.snap_node)
  | _ -> Alcotest.fail "expected one stats response"

let test_dbm_start_update () =
  let rt, node, _, _, _ = make_runtime lonely "me" in
  Dbm.handle rt (message Payload.Start_update);
  (* the lonely node's update starts and immediately terminates *)
  Alcotest.(check int) "one update state" 1 (Codb_core.Ids.Update_tbl.length node.Node.updates);
  let snap = Codb_core.Stats.snapshot node.Node.stats in
  match snap.Codb_core.Stats.snap_updates with
  | [ u ] -> Alcotest.(check bool) "finished" true (u.Codb_core.Stats.us_finished <> None)
  | _ -> Alcotest.fail "expected one update"

(* --- per-message lookups ---------------------------------------------- *)

(* Minor words [lookup] allocates per call, over 1 000 calls. *)
let words_per_lookup lookup =
  let lookups = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to lookups do
    ignore (Sys.opaque_identity (lookup ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int lookups

(* Every update and query message finds its state and its statistics
   record: a hit must format no id and allocate nothing. *)
let test_lookups_allocate_nothing () =
  let _, node, _, _, _ = make_runtime lonely "me" in
  let uid = Codb_core.Ids.update_id node.Node.node_id 1 in
  let qid = Codb_core.Ids.query_id node.Node.node_id 1 in
  let stats = node.Node.stats in
  Node.add_update_state node
    (Codb_core.Update_state.create ~initiator:true ~outgoing:[] ~incoming:[] uid);
  ignore (Codb_core.Stats.update_stat stats ~now:0.0 uid);
  ignore (Codb_core.Stats.query_stat stats ~now:0.0 qid);
  let check what lookup =
    let words = words_per_lookup lookup in
    if words >= 1.0 then
      Alcotest.failf "%s allocates %.1f words per lookup" what words
  in
  check "Node.update_state" (fun () -> Node.update_state node uid);
  check "Stats.update_stat" (fun () -> Codb_core.Stats.update_stat stats ~now:0.0 uid);
  check "Stats.query_stat" (fun () -> Codb_core.Stats.query_stat stats ~now:0.0 qid);
  Alcotest.(check bool) "the state is found" true (Node.update_state node uid <> None)

(* Request references go on the wire: their text is pinned. *)
let test_fresh_ref_text () =
  let _, node, _, _, _ = make_runtime "node n4 { relation r(x: int); }" "n4" in
  for _ = 1 to 16 do
    ignore (Node.fresh_serial node)
  done;
  Alcotest.(check string) "17th reference" "n4/17" (Node.fresh_ref node);
  Alcotest.(check string) "then the 18th" "n4/18" (Node.fresh_ref node)

let suite =
  [
    Alcotest.test_case "probes answer and forward" `Quick test_probe_answers_and_forwards;
    Alcotest.test_case "ttl zero stops forwarding" `Quick test_probe_ttl_zero_no_forward;
    Alcotest.test_case "probes deduplicated" `Quick test_probe_deduplicated;
    Alcotest.test_case "reply routing" `Quick test_reply_routing;
    Alcotest.test_case "rules install and pipes open" `Quick
      test_reconfigure_installs_rules_and_pipes;
    Alcotest.test_case "version gating" `Quick test_reconfigure_version_gating;
    Alcotest.test_case "obsolete pipes closed" `Quick test_reconfigure_drops_obsolete_pipes;
    Alcotest.test_case "bad rules file rejected" `Quick test_reconfigure_rejects_bad_text;
    Alcotest.test_case "DBM answers stats requests" `Quick test_dbm_stats_request;
    Alcotest.test_case "DBM starts updates" `Quick test_dbm_start_update;
    Alcotest.test_case "lookups allocate nothing" `Quick test_lookups_allocate_nothing;
    Alcotest.test_case "request reference text" `Quick test_fresh_ref_text;
  ]
