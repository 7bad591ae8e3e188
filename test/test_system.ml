open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology
module Superpeer = Codb_core.Superpeer
module Report = Codb_core.Report
module Stats = Codb_core.Stats
module Node = Codb_core.Node
module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network

let test_build_rejects_invalid () =
  let cfg =
    { Config.nodes = []; rules = [ { Config.rule_id = "r"; importer = "a"; source = "b";
        rule_query = parse_query "r(x) <- r(x)" } ] }
  in
  match System.build cfg with
  | Ok _ -> Alcotest.fail "invalid config accepted"
  | Error errors -> Alcotest.(check bool) "errors reported" true (errors <> [])

let test_build_rejects_reserved_name () =
  let cfg = parse_config "node superpeer { relation r(x: int); }" in
  match System.build cfg with
  | Ok _ -> Alcotest.fail "reserved name accepted"
  | Error _ -> ()

let test_pipes_follow_rules () =
  let sys = System.build_exn (Topology.generate ~seed:1 Topology.Chain ~n:4) in
  let net = System.net sys in
  let p = Peer_id.of_string in
  Alcotest.(check bool) "n0-n1" true (Network.connected net (p "n0") (p "n1"));
  Alcotest.(check bool) "n1-n2" true (Network.connected net (p "n1") (p "n2"));
  Alcotest.(check bool) "no n0-n2" false (Network.connected net (p "n0") (p "n2"))

(* [System.build] groups the rules by importer and by source in one
   pass; every node must get exactly the [Config] helpers' lists, in
   config order. *)
let test_build_wires_rules () =
  let check_wiring label cfg =
    let sys = System.build_exn cfg in
    let ids rules = List.map (fun r -> r.Config.rule_id) rules in
    List.iter
      (fun name ->
        let node = System.node sys name in
        Alcotest.(check (list string)) (label ^ " " ^ name ^ " outgoing")
          (ids (Config.rules_importing_at cfg name)) (ids node.Node.outgoing);
        Alcotest.(check (list string)) (label ^ " " ^ name ^ " incoming")
          (ids (Config.rules_sourced_at cfg name)) (ids node.Node.incoming))
      (System.node_names sys)
  in
  check_wiring "tree" (Topology.generate ~seed:3 Topology.Binary_tree ~n:31);
  let n = 12 in
  let spec = { Codb_workload.Glavgen.default_spec with Codb_workload.Glavgen.rules_per_edge = 3 } in
  check_wiring "mesh"
    (Codb_workload.Glavgen.generate ~spec ~seed:5
       ~edges:(Topology.edges (Topology.Grid (3, 4)) ~n) ~n ())

let test_superpeer_stats_collection () =
  let sys = System.build_exn (Topology.generate ~seed:2 Topology.Chain ~n:3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let snaps = System.collect_stats sys in
  Alcotest.(check int) "three nodes replied" 3 (List.length snaps);
  (* message-based collection must agree with the direct snapshot *)
  let direct = System.snapshots sys in
  let direct_report = Option.get (Report.latest_update_report direct) in
  let collected_report = Option.get (Report.latest_update_report snaps) in
  Alcotest.(check int) "same message count" direct_report.Report.ur_data_msgs
    collected_report.Report.ur_data_msgs;
  Alcotest.(check int) "same tuples" direct_report.Report.ur_new_tuples
    collected_report.Report.ur_new_tuples

(* Snapshots collected through the super-peer are copies: later writes
   to a node's live accumulators and a second update leave them as
   they were. *)
let test_collected_stats_are_copies () =
  let sys = System.build_exn (Topology.generate ~seed:2 Topology.Chain ~n:3) in
  let uid = System.run_update sys ~initiator:"n0" in
  let collected = System.collect_stats sys and direct = System.snapshots sys in
  let print snaps = Fmt.str "%a" Report.pp_network snaps in
  let collected_text = print collected and direct_text = print direct in
  let stats = (System.node sys "n1").Node.stats in
  let us = Option.get (Stats.find_update stats uid) in
  us.Stats.us_new_tuples <- us.Stats.us_new_tuples + 100;
  Hashtbl.iter (fun _ rt -> rt.Stats.rt_bytes <- rt.Stats.rt_bytes + 100) us.Stats.us_per_rule;
  (Stats.sub stats).Stats.sb_deltas_in <- 100;
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check string) "collected unchanged" collected_text (print collected);
  Alcotest.(check string) "direct unchanged" direct_text (print direct)

let test_superpeer_trigger_update () =
  let sys = System.build_exn (Topology.generate ~seed:3 Topology.Chain ~n:3) in
  let sp = System.superpeer sys in
  Superpeer.trigger_update sp ~at:(Peer_id.of_string "n0");
  let _ = System.run sys in
  let report = Report.latest_update_report (System.snapshots sys) in
  Alcotest.(check bool) "an update ran" true (report <> None);
  Alcotest.(check bool) "it finished" true (Option.get report).Report.ur_all_finished

let test_rules_rebroadcast_changes_topology () =
  (* start as a chain, rewire to a star; data must then flow along the
     star's edges *)
  let chain = Topology.generate ~seed:4 Topology.Chain ~n:4 in
  let sys = System.build_exn chain in
  let star = Topology.rules_only (Topology.generate ~seed:4 Topology.Star_in ~n:4) in
  System.broadcast_rules sys star;
  let net = System.net sys in
  let p = Peer_id.of_string in
  Alcotest.(check bool) "star pipe n0-n3" true (Network.connected net (p "n0") (p "n3"));
  Alcotest.(check bool) "chain pipe n1-n2 closed" false
    (Network.connected net (p "n1") (p "n2"));
  let _ = System.run_update sys ~initiator:"n0" in
  let n0 = System.local_answers sys ~at:"n0" (parse_query "o(x, y) <- data(x, y)") in
  let n1 = System.node sys "n1" in
  Alcotest.(check int) "n1 has one incoming rule" 1 (List.length n1.Node.incoming);
  Alcotest.(check bool) "n0 imported from all leaves" true (List.length n0 > 0)

let test_update_after_rewire_uses_new_rules () =
  let chain = Topology.generate ~seed:6 Topology.Chain ~n:3 in
  let sys = System.build_exn chain in
  let _ = System.run_update sys ~initiator:"n0" in
  let before = List.length (System.local_answers sys ~at:"n2" (parse_query "o(x, y) <- data(x, y)")) in
  (* reverse the chain: now n2 imports from n1 imports from n0 *)
  let reversed =
    {
      Config.nodes = (Topology.rules_only chain).Config.nodes;
      rules =
        List.map
          (fun r ->
            { r with Config.importer = r.Config.source; source = r.Config.importer })
          chain.Config.rules;
    }
  in
  System.broadcast_rules sys reversed;
  let _ = System.run_update sys ~initiator:"n2" in
  let after = List.length (System.local_answers sys ~at:"n2" (parse_query "o(x, y) <- data(x, y)")) in
  Alcotest.(check bool) "n2 grew after reversal" true (after > before)

let test_discovery_ttl () =
  let sys = System.build_exn (Topology.generate ~seed:5 Topology.Chain ~n:6) in
  let found_ttl0 = System.discover sys ~at:"n0" ~ttl:0 in
  (* ttl 0: the direct neighbour n1 answers with itself and its own
     neighbourhood, so n0 learns n1 and n2 *)
  Alcotest.(check int) "ttl 0 reaches distance 2" 2 (List.length found_ttl0);
  let found_ttl1 = System.discover sys ~at:"n0" ~ttl:1 in
  Alcotest.(check int) "ttl 1 reaches distance 3" 3 (List.length found_ttl1);
  let found_ttl4 = System.discover sys ~at:"n0" ~ttl:4 in
  Alcotest.(check int) "ttl 4 finds all" 5 (List.length found_ttl4)

let test_add_node_dynamic () =
  let sys = System.build_exn (Topology.generate ~seed:7 Topology.Chain ~n:2) in
  let decl =
    {
      Config.node_name = "n2";
      relations = [ Topology.data_relation ];
      facts = [ ("data", tup [ i 999; s "new" ]) ];
      mediator = false;
      constraints = [];
    }
  in
  System.add_node sys decl;
  Alcotest.(check (list string)) "three nodes" [ "n0"; "n1"; "n2" ]
    (System.node_names sys);
  (* wire it in via a rules broadcast and check data flows *)
  let cfg = System.config sys in
  let extra_rule =
    {
      Config.rule_id = "r_1_2";
      importer = "n1";
      source = "n2";
      rule_query = parse_query "data(x, y) <- data(x, y)";
    }
  in
  System.broadcast_rules sys { cfg with Config.rules = extra_rule :: cfg.Config.rules };
  let _ = System.run_update sys ~initiator:"n0" in
  let n0 = System.local_answers sys ~at:"n0" (parse_query "o(y) <- data(999, y)") in
  check_tuples "new node's data reached n0" [ tup [ s "new" ] ] n0

let test_report_aggregation_fields () =
  let sys = System.build_exn (Topology.generate ~seed:8 Topology.Star_in ~n:5) in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check int) "five nodes" 5 report.Report.ur_nodes;
  Alcotest.(check int) "star has path length 1" 1 report.Report.ur_longest_path;
  Alcotest.(check int) "four rules in traffic table" 4
    (List.length report.Report.ur_per_rule);
  Alcotest.(check bool) "duration positive" true (report.Report.ur_duration > 0.0);
  Alcotest.(check bool) "bytes positive" true (report.Report.ur_bytes > 0)

let test_report_missing_update () =
  let sys = System.build_exn (Topology.generate ~seed:9 Topology.Chain ~n:2) in
  let fake = Codb_core.Ids.update_id (Peer_id.of_string "n0") 12345 in
  Alcotest.(check bool) "no report" true
    (Report.update_report (System.snapshots sys) fake = None)

let test_stats_snapshot_roundtrip_sizes () =
  let sys = System.build_exn (Topology.generate ~seed:10 Topology.Chain ~n:3) in
  let _ = System.run_update sys ~initiator:"n0" in
  List.iter
    (fun snap ->
      Alcotest.(check bool) "snapshot has positive size" true
        (Stats.snapshot_size_bytes snap > 0))
    (System.snapshots sys)

let run_pushdown_case ~params ~seed ~pushdown q =
  let opts = { Codb_core.Options.default with Codb_core.Options.pushdown } in
  let sys = System.build_exn ~opts (Topology.generate ~params ~seed Topology.Chain ~n:4) in
  let outcome = System.run_query sys ~at:"n0" q in
  let pr =
    Option.get (Report.pushdown_report (System.snapshots sys) outcome.System.qo_id)
  in
  (outcome, pr)

let test_pushdown_reduces_traffic () =
  (* a chain of well-stocked nodes and a maximally selective query:
     with pushdown each responder's rule body is specialized to the
     root's constant, so the non-matching tuples never hit the wire *)
  let params = { Topology.default_params with Topology.tuples_per_node = 40 } in
  let q = parse_query "o(y) <- data(3, y)" in
  let base, base_pr = run_pushdown_case ~params ~seed:21 ~pushdown:false q in
  let push, push_pr = run_pushdown_case ~params ~seed:21 ~pushdown:true q in
  check_tuples "same answers" base.System.qo_answers push.System.qo_answers;
  Alcotest.(check bool) "both complete" true
    (base.System.qo_complete && push.System.qo_complete);
  Alcotest.(check int) "baseline pushes nothing" 0 base_pr.Report.pr_pushed;
  Alcotest.(check bool) "sub-requests carry constraints" true
    (push_pr.Report.pr_pushed > 0);
  Alcotest.(check bool) "answer bytes shrink" true
    (push_pr.Report.pr_bytes_in < base_pr.Report.pr_bytes_in)

let test_pushdown_refutes_existential () =
  (* every rule has an existential head: each derived tuple carries a
     fresh null in the value column, so an equality there can never
     hold — responders refute the rule outright and the diffusion dies
     at the first hop, shipping zero answer bytes *)
  let params =
    { Topology.default_params with
      Topology.tuples_per_node = 20;
      existential_frac = 1.0 }
  in
  let q = parse_query "o(x) <- data(x, \"match-nothing\")" in
  let base, base_pr = run_pushdown_case ~params ~seed:23 ~pushdown:false q in
  let push, push_pr = run_pushdown_case ~params ~seed:23 ~pushdown:true q in
  check_tuples "same answers" base.System.qo_answers push.System.qo_answers;
  Alcotest.(check bool) "baseline ships null tuples" true
    (base_pr.Report.pr_bytes_in > 0);
  Alcotest.(check int) "nothing crosses the wire" 0 push_pr.Report.pr_bytes_in

let test_pushdown_filters_disjunction_at_source () =
  (* two atoms over the same relation give a disjunctive constraint,
     which never folds into a rule body: responders evaluate in full
     and the output filter withholds the non-matching tuples — visibly,
     in the counter *)
  let params = { Topology.default_params with Topology.tuples_per_node = 40 } in
  let q = parse_query "o(y, z) <- data(2, y), data(3, z)" in
  let base, base_pr = run_pushdown_case ~params ~seed:24 ~pushdown:false q in
  let push, push_pr = run_pushdown_case ~params ~seed:24 ~pushdown:true q in
  check_tuples "same answers" base.System.qo_answers push.System.qo_answers;
  Alcotest.(check bool) "tuples filtered at source" true
    (push_pr.Report.pr_filtered_at_source > 0);
  Alcotest.(check bool) "answer bytes shrink" true
    (push_pr.Report.pr_bytes_in < base_pr.Report.pr_bytes_in)

module Trace = Codb_core.Trace

let test_trace_records_protocol () =
  let sys = System.build_exn (Topology.generate ~seed:12 Topology.Chain ~n:3) in
  let trace = System.enable_trace sys in
  let _ = System.run_update sys ~initiator:"n0" in
  let events = Trace.events trace in
  Alcotest.(check bool) "events recorded" true (List.length events > 5);
  (* chronological, and every delivery follows some send of the same
     description *)
  let rec chronological = function
    | a :: (b :: _ as rest) -> a.Trace.ev_at <= b.Trace.ev_at && chronological rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "chronological" true (chronological events);
  List.iter
    (fun e ->
      if e.Trace.ev_direction = Trace.Delivered then
        Alcotest.(check bool)
          ("matched send for " ^ e.Trace.ev_what)
          true
          (List.exists
             (fun s ->
               s.Trace.ev_direction = Trace.Sent
               && String.equal s.Trace.ev_what e.Trace.ev_what
               && s.Trace.ev_at <= e.Trace.ev_at)
             events))
    events

let test_trace_ring_capacity () =
  let sys = System.build_exn (Topology.generate ~seed:13 Topology.Chain ~n:4) in
  let trace = System.enable_trace ~capacity:4 sys in
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check int) "bounded" 4 (Trace.length trace);
  Alcotest.(check bool) "older events dropped" true (Trace.dropped trace > 0);
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (Trace.length trace)

let test_trace_disabled_by_default () =
  let sys = System.build_exn (Topology.generate ~seed:14 Topology.Chain ~n:2) in
  Alcotest.(check bool) "no trace" true (System.trace sys = None);
  let t1 = System.enable_trace sys in
  let t2 = System.enable_trace sys in
  Alcotest.(check bool) "idempotent" true (t1 == t2)

(* A query answers over the peers' current stores: a fact inserted at
   a remote peer is in the next answer, with no update in between. *)
let test_remote_insert_in_next_answer () =
  let sys = System.build_exn (Topology.generate ~seed:42 Topology.Chain ~n:5) in
  let q = parse_query "ans(x, y) <- data(x, y)" in
  let answers () = (System.run_query sys ~at:"n0" q).System.qo_answers in
  Alcotest.(check int) "before the insert" 238 (List.length (answers ()));
  let fact = tup [ i 424242; s "remote" ] in
  Alcotest.(check bool) "fact is new" true
    (System.insert_fact sys ~at:"n4" ~rel:"data" fact);
  let after = answers () in
  Alcotest.(check int) "after the insert" 239 (List.length after);
  Alcotest.(check bool) "the remote fact is answered" true
    (List.exists (Tuple.equal fact) after)

let suite =
  [
    Alcotest.test_case "build validates" `Quick test_build_rejects_invalid;
    Alcotest.test_case "trace records the protocol" `Quick test_trace_records_protocol;
    Alcotest.test_case "trace ring capacity" `Quick test_trace_ring_capacity;
    Alcotest.test_case "trace off by default" `Quick test_trace_disabled_by_default;
    Alcotest.test_case "reserved super-peer name" `Quick test_build_rejects_reserved_name;
    Alcotest.test_case "pipes follow coordination rules" `Quick test_pipes_follow_rules;
    Alcotest.test_case "super-peer collects statistics" `Quick
      test_superpeer_stats_collection;
    Alcotest.test_case "collected statistics are copies" `Quick
      test_collected_stats_are_copies;
    Alcotest.test_case "super-peer triggers updates" `Quick test_superpeer_trigger_update;
    Alcotest.test_case "rules re-broadcast rewires the network" `Quick
      test_rules_rebroadcast_changes_topology;
    Alcotest.test_case "updates follow the new rules" `Quick
      test_update_after_rewire_uses_new_rules;
    Alcotest.test_case "discovery respects TTL" `Quick test_discovery_ttl;
    Alcotest.test_case "dynamic node arrival" `Quick test_add_node_dynamic;
    Alcotest.test_case "report aggregation" `Quick test_report_aggregation_fields;
    Alcotest.test_case "report for unknown update" `Quick test_report_missing_update;
    Alcotest.test_case "build wires each node's rules" `Quick test_build_wires_rules;
    Alcotest.test_case "snapshot sizes" `Quick test_stats_snapshot_roundtrip_sizes;
    Alcotest.test_case "pushdown reduces query traffic" `Quick
      test_pushdown_reduces_traffic;
    Alcotest.test_case "pushdown refutes existential heads" `Quick
      test_pushdown_refutes_existential;
    Alcotest.test_case "pushdown filters disjunctions at source" `Quick
      test_pushdown_filters_disjunction_at_source;
    Alcotest.test_case "remote insert is in the next answer" `Quick
      test_remote_insert_in_next_answer;
  ]
