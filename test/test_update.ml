open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology
module Report = Codb_core.Report
module Stats = Codb_core.Stats
module Options = Codb_core.Options
module Node = Codb_core.Node
module Deps = Codb_core.Deps

(* A hand-written 3-node chain with known data, so expected results
   can be written down exactly.
     n2 holds person(name, dept); n1 imports person from n2 into its
     own person relation; n0 imports the names into who(name). *)
let chain_cfg () =
  parse_config
    {|
node n0 { relation who(name: string); }
node n1 { relation person(name: string, dept: string);
          fact person("carol", "bio"); }
node n2 { relation person(name: string, dept: string);
          fact person("alice", "cs");
          fact person("bob", "cs"); }
rule r10 at n1: person(x, d) <- n2: person(x, d);
rule r01 at n0: who(x) <- n1: person(x, d);
|}

let run_chain () =
  let sys = System.build_exn (chain_cfg ()) in
  let uid = System.run_update sys ~initiator:"n0" in
  (sys, uid)

let names db_tuples = List.map (fun t -> t.(0)) db_tuples

let test_chain_materialises () =
  let sys, _ = run_chain () in
  (* n1 now has carol + alice + bob; n0 has all three names *)
  let n1_person = System.local_answers sys ~at:"n1" (parse_query "p(x, d) <- person(x, d)") in
  Alcotest.(check int) "n1 person count" 3 (List.length n1_person);
  let n0_who = System.local_answers sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  check_tuples "n0 names"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    n0_who

let test_chain_terminates_and_closes () =
  let sys, uid = run_chain () in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "all nodes finished" true report.Report.ur_all_finished;
  Alcotest.(check int) "three participants" 3 report.Report.ur_nodes;
  Alcotest.(check int) "longest path 2" 2 report.Report.ur_longest_path

let test_chain_initiator_elsewhere () =
  (* starting the update at the far end must reach everyone too *)
  let sys = System.build_exn (chain_cfg ()) in
  let _ = System.run_update sys ~initiator:"n2" in
  let n0_who = System.local_answers sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  Alcotest.(check int) "n0 has 3 names" 3 (List.length n0_who)

let test_update_idempotent () =
  let sys, _ = run_chain () in
  let total_before = System.total_tuples sys in
  let uid2 = System.run_update sys ~initiator:"n0" in
  Alcotest.(check int) "no new tuples" total_before (System.total_tuples sys);
  let report = Option.get (Report.update_report (System.snapshots sys) uid2) in
  Alcotest.(check int) "second update moves nothing new" 0 report.Report.ur_new_tuples

let test_existential_head_creates_nulls () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); }
node b { relation q(x: int); fact q(1); fact q(2); }
rule e at a: r(x, z) <- b: q(x);
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"a" in
  let r = System.local_answers sys ~at:"a" (parse_query "p(x, y) <- r(x, y)") in
  Alcotest.(check int) "two tuples" 2 (List.length r);
  Alcotest.(check bool) "all carry nulls" true (List.for_all Tuple.has_null r);
  Alcotest.(check int) "no certain answers" 0 (List.length (Eval.certain r))

let test_existential_cycle_terminates () =
  (* two nodes exchanging an existential relation: without null-aware
     subsumption this would loop forever *)
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); fact r(1, 10); }
node b { relation r(x: int, y: int); fact r(2, 20); }
rule ab at a: r(x, z) <- b: r(x, y);
rule ba at b: r(x, z) <- a: r(x, y);
|}
  in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"a" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "terminated" true report.Report.ur_all_finished;
  (* a ends with its own (1,10) plus (2, null) *)
  let a_r = System.local_answers sys ~at:"a" (parse_query "p(x, y) <- r(x, y)") in
  check_tuples "a keys" [ tup [ i 1 ]; tup [ i 2 ] ]
    (List.map (fun t -> tup [ t.(0) ]) a_r)

let test_copy_cycle_reaches_fixpoint () =
  (* 3-ring of plain copies: everyone ends with the union *)
  let cfg =
    parse_config
      {|
node a { relation r(x: int); fact r(1); }
node b { relation r(x: int); fact r(2); }
node c { relation r(x: int); fact r(3); }
rule ab at a: r(x) <- b: r(x);
rule bc at b: r(x) <- c: r(x);
rule ca at c: r(x) <- a: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"a" in
  let expected = [ tup [ i 1 ]; tup [ i 2 ]; tup [ i 3 ] ] in
  List.iter
    (fun node ->
      check_tuples (node ^ " has the union") expected
        (System.local_answers sys ~at:node (parse_query "p(x) <- r(x)")))
    [ "a"; "b"; "c" ]

let test_join_rule_across_relations () =
  let cfg =
    parse_config
      {|
node hr { relation emp(name: string, title: string); }
node src {
  relation person(name: string, dept: string);
  relation job(dept: string, title: string);
  fact person("alice", "cs"); fact person("bob", "math");
  fact job("cs", "prof");    fact job("math", "lect");
}
rule j at hr: emp(n, t) <- src: person(n, d), job(d, t), d != "math";
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"hr" in
  check_tuples "join with comparison"
    [ tup [ s "alice"; s "prof" ] ]
    (System.local_answers sys ~at:"hr" (parse_query "e(n, t) <- emp(n, t)"))

let test_transitive_join_dependency () =
  (* c's incoming link reads the relation that c's outgoing link
     writes: data from d must flow through c to m *)
  let cfg =
    parse_config
      {|
node m { relation out(x: int); }
node c { relation mid(x: int); fact mid(100); }
node d { relation base(x: int); fact base(1); fact base(2); }
rule cm at m: out(x) <- c: mid(x);
rule dc at c: mid(x) <- d: base(x);
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"m" in
  check_tuples "m sees base through mid"
    [ tup [ i 1 ]; tup [ i 2 ]; tup [ i 100 ] ]
    (System.local_answers sys ~at:"m" (parse_query "o(x) <- out(x)"))

let test_mediator_node_forwards () =
  (* the middle node is a mediator: it has no LDB of its own but its
     Wrapper still materialises and forwards imported data *)
  let cfg =
    parse_config
      {|
node sink { relation r(x: int); }
node mid mediator { relation r(x: int); }
node origin { relation r(x: int); fact r(7); fact r(8); }
rule a at sink: r(x) <- mid: r(x);
rule b at mid: r(x) <- origin: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"sink" in
  check_tuples "through the mediator" [ tup [ i 7 ]; tup [ i 8 ] ]
    (System.local_answers sys ~at:"sink" (parse_query "o(x) <- r(x)"))

let test_inconsistent_node_does_not_export () =
  let cfg =
    parse_config
      {|
node sink { relation r(x: int); }
node bad { relation r(x: int); fact r(13); fact r(1); constraint r(13); }
node good { relation r(x: int); fact r(2); }
rule sb at sink: r(x) <- bad: r(x);
rule sg at sink: r(x) <- good: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"sink" in
  (* bad violates its constraint (it has r(13)): none of its data may
     propagate, but good's does *)
  check_tuples "only good's data" [ tup [ i 2 ] ]
    (System.local_answers sys ~at:"sink" (parse_query "o(x) <- r(x)"));
  let snap =
    List.find
      (fun s -> Codb_net.Peer_id.to_string s.Stats.snap_node = "bad")
      (System.snapshots sys)
  in
  Alcotest.(check bool) "flagged inconsistent" true snap.Stats.snap_inconsistent

(* A constraint every pair of rows violates: the check stops at the
   first violation, one scan per atom, instead of listing all 40 000
   (which takes one scan of the second atom per row of the first). *)
let test_constraint_check_stops_at_first_violation () =
  let facts = String.concat " " (List.init 200 (Printf.sprintf "fact r(%d);")) in
  let cfg =
    parse_config
      (Printf.sprintf "node bad { relation r(x: int); %s constraint r(x), r(y); }" facts)
  in
  let node = Node.create (Option.get (Config.node cfg "bad")) in
  let before = Eval.counters () in
  Alcotest.(check bool) "may not export" false (Node.may_export node);
  Alcotest.(check int) "scans" 2 ((Eval.counters ()).Eval.scans - before.Eval.scans)

let test_dedup_suppresses_duplicates () =
  (* diamond: the same data reaches the sink over two paths; the
     second copy must be suppressed *)
  let cfg =
    parse_config
      {|
node sink { relation r(x: int); }
node l { relation r(x: int); }
node rr { relation r(x: int); }
node origin { relation r(x: int); fact r(1); fact r(2); fact r(3); }
rule sl at sink: r(x) <- l: r(x);
rule sr at sink: r(x) <- rr: r(x);
rule lo at l: r(x) <- origin: r(x);
rule ro at rr: r(x) <- origin: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"sink" in
  check_tuples "sink has each tuple once"
    [ tup [ i 1 ]; tup [ i 2 ]; tup [ i 3 ] ]
    (System.local_answers sys ~at:"sink" (parse_query "o(x) <- r(x)"));
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "duplicates were suppressed" true
    (report.Report.ur_dup_suppressed >= 3)

let test_sent_cache_prevents_resend () =
  (* without the sent cache the same tuples would be re-sent when the
     update request arrives over a second path *)
  let cfg = Topology.generate ~seed:7 Topology.Clique ~n:3 in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "terminates" true report.Report.ur_all_finished;
  (* every pair of nodes exchanges each tuple at most twice (once per
     direction), so data messages are bounded *)
  Alcotest.(check bool) "bounded messages" true (report.Report.ur_data_msgs <= 24)

let test_no_acquaintances_trivial_update () =
  let cfg = parse_config "node lonely { relation r(x: int); fact r(1); }" in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"lonely" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "finished immediately" true report.Report.ur_all_finished;
  Alcotest.(check int) "no data messages" 0 report.Report.ur_data_msgs

let test_concurrent_updates () =
  (* two different initiators, interleaved in the same simulation *)
  let cfg = Topology.generate ~seed:11 Topology.Chain ~n:4 in
  let sys = System.build_exn cfg in
  let u1 = System.start_update sys ~initiator:"n0" in
  let u2 = System.start_update sys ~initiator:"n3" in
  let _ = System.run sys in
  let snaps = System.snapshots sys in
  let r1 = Option.get (Report.update_report snaps u1) in
  let r2 = Option.get (Report.update_report snaps u2) in
  Alcotest.(check bool) "u1 finished" true r1.Report.ur_all_finished;
  Alcotest.(check bool) "u2 finished" true r2.Report.ur_all_finished

let test_grid_update_counts () =
  let cfg = Topology.generate ~seed:5 (Topology.Grid (3, 3)) ~n:9 ~params:{ Topology.default_params with tuples_per_node = 10 } in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check int) "nine nodes" 9 report.Report.ur_nodes;
  Alcotest.(check bool) "finished" true report.Report.ur_all_finished;
  (* node 0 (top-left) imports everything downstream *)
  let n0 = System.local_answers sys ~at:"n0" (parse_query "o(x, y) <- data(x, y)") in
  Alcotest.(check bool) "n0 grew" true (List.length n0 > 10)

let test_deps_relevance () =
  let cfg = chain_cfg () in
  let sys = System.build_exn cfg in
  let n1 = System.node sys "n1" in
  let incoming = List.hd n1.Node.incoming in
  let relevant = Deps.relevant_outgoing n1.Node.outgoing ~incoming in
  Alcotest.(check int) "r10 feeds r01" 1 (List.length relevant);
  let outgoing = List.hd n1.Node.outgoing in
  let dependent = Deps.dependent_incoming n1.Node.incoming ~outgoing in
  Alcotest.(check int) "r01 depends on r10" 1 (List.length dependent)

let test_ablation_naive_delta_same_result () =
  let opts = { Options.default with Options.naive_delta = true } in
  let cfg = Topology.generate ~seed:21 Topology.Binary_tree ~n:7 ~params:{ Topology.default_params with tuples_per_node = 15 } in
  let sys_naive = System.build_exn ~opts cfg in
  let sys_semi = System.build_exn (Topology.generate ~seed:21 Topology.Binary_tree ~n:7 ~params:{ Topology.default_params with tuples_per_node = 15 }) in
  let _ = System.run_update sys_naive ~initiator:"n0" in
  let _ = System.run_update sys_semi ~initiator:"n0" in
  let q = parse_query "o(x, y) <- data(x, y)" in
  List.iter
    (fun node ->
      check_tuples (node ^ " same contents")
        (System.local_answers sys_semi ~at:node q)
        (System.local_answers sys_naive ~at:node q))
    (System.node_names sys_naive)

let test_ablation_no_sent_cache_same_result_more_traffic () =
  let mk opts seed = System.build_exn ~opts (Topology.generate ~seed Topology.Clique ~n:3 ~params:{ Topology.default_params with tuples_per_node = 20 }) in
  let sys_with = mk Options.default 33 in
  let sys_without = mk { Options.default with Options.use_sent_cache = false } 33 in
  let u1 = System.run_update sys_with ~initiator:"n0" in
  let u2 = System.run_update sys_without ~initiator:"n0" in
  let q = parse_query "o(x, y) <- data(x, y)" in
  List.iter
    (fun node ->
      check_tuples (node ^ " same contents")
        (System.local_answers sys_with ~at:node q)
        (System.local_answers sys_without ~at:node q))
    (System.node_names sys_with);
  let r1 = Option.get (Report.update_report (System.snapshots sys_with) u1) in
  let r2 = Option.get (Report.update_report (System.snapshots sys_without) u2) in
  Alcotest.(check bool) "cache saves traffic" true
    (r2.Report.ur_bytes >= r1.Report.ur_bytes)

let test_lineage_records_imports () =
  let sys, _ = run_chain () in
  let n0 = System.node sys "n0" in
  (* alice's name reached n0 through rule r01 over a 2-hop path *)
  (match Node.explain n0 ~rel:"who" (tup [ s "alice" ]) with
  | Some (Codb_core.Lineage.Imported route) ->
      Alcotest.(check string) "via r01" "r01" route.Codb_core.Lineage.li_rule;
      Alcotest.(check int) "two hops" 2 route.Codb_core.Lineage.li_hops
  | Some Codb_core.Lineage.Base -> Alcotest.fail "unexpected origin: base"
  | None -> Alcotest.fail "unexpected origin: absent");
  (* carol sits one hop away *)
  (match Node.explain n0 ~rel:"who" (tup [ s "carol" ]) with
  | Some (Codb_core.Lineage.Imported route) ->
      Alcotest.(check int) "one hop" 1 route.Codb_core.Lineage.li_hops
  | _ -> Alcotest.fail "expected an import");
  (* a base fact at n2 is Base; an absent tuple is None *)
  let n2 = System.node sys "n2" in
  Alcotest.(check bool) "base fact" true
    (Node.explain n2 ~rel:"person" (tup [ s "alice"; s "cs" ])
    = Some Codb_core.Lineage.Base);
  Alcotest.(check bool) "absent" true
    (Node.explain n2 ~rel:"person" (tup [ s "nobody"; s "x" ]) = None)

(* Lineage is one window per integration, in row order: [origin_of]
   finds a stored tuple's window by its row id, rows outside every
   window are base facts, and an empty run records nothing. *)
let test_lineage_order () =
  let module L = Codb_core.Lineage in
  let store = db_of [ r_schema ] [] in
  let lineage = L.create () in
  let import rule at = { L.li_rule = rule; li_hops = 1; li_at = at } in
  let add n = ignore (Database.insert store "r" (tup [ i n; i n ])) in
  List.iter add [ 0; 1; 2 ];
  L.record lineage ~rel:"r" ~since:1 ~upto:3 (import "r1" 1.0);
  List.iter add [ 3; 4 ];
  L.record lineage ~rel:"r" ~since:4 ~upto:5 (import "r2" 2.0);
  L.record lineage ~rel:"r" ~since:5 ~upto:5 (import "r3" 3.0);
  Alcotest.(check (list (pair int int))) "row order" [ (1, 3); (4, 5) ]
    (List.map (fun w -> (w.L.w_since, w.L.w_upto)) (L.windows lineage ~rel:"r"));
  let origin n =
    match L.origin_of ~store lineage ~rel:"r" (tup [ i n; i n ]) with
    | None -> "absent"
    | Some L.Base -> "base"
    | Some (L.Imported route) -> route.L.li_rule
  in
  Alcotest.(check (list string)) "origins" [ "base"; "r1"; "r1"; "base"; "r2"; "absent" ]
    (List.map origin [ 0; 1; 2; 3; 4; 9 ]);
  Alcotest.(check int) "another relation" 0 (List.length (L.windows lineage ~rel:"s"));
  L.clear lineage;
  Alcotest.(check int) "cleared" 0 (List.length (L.windows lineage ~rel:"r"));
  Alcotest.(check string) "base once cleared" "base" (origin 1)

(* [hop_windows] reads the asking update's windows only, cut to
   [from, upto): the gaps, another update's windows and a replayed one
   (no update) read as 0 hops, and neighbours with equal hops merge. *)
let test_hop_windows () =
  let module L = Codb_core.Lineage in
  let lineage = L.create () in
  let n0 = Codb_net.Peer_id.of_string "n0" in
  let u1 = Codb_core.Ids.update_id n0 1 and u2 = Codb_core.Ids.update_id n0 2 in
  let record ?update since upto hops =
    L.record lineage ~rel:"r" ?update ~since ~upto { L.li_rule = "x"; li_hops = hops; li_at = 0. }
  in
  record ~update:u1 0 2 1;
  record ~update:u2 2 4 3;
  record ~update:u1 4 6 1;
  record 6 8 2;
  (* row 8 is a base fact *)
  record ~update:u1 9 11 2;
  record ~update:u1 11 13 2;
  record ~update:u1 13 15 1;
  let windows = Alcotest.(list (triple int int int)) in
  Alcotest.check windows "u1, cut to [1, 14)"
    [ (1, 2, 1); (2, 4, 0); (4, 6, 1); (6, 9, 0); (9, 13, 2); (13, 14, 1) ]
    (L.hop_windows lineage ~rel:"r" ~update:u1 ~from:1 ~upto:14);
  Alcotest.check windows "u2" [ (0, 2, 0); (2, 4, 3); (4, 15, 0) ]
    (L.hop_windows lineage ~rel:"r" ~update:u2 ~from:0 ~upto:15);
  Alcotest.check windows "past the last window" [ (14, 15, 1); (15, 20, 0) ]
    (L.hop_windows lineage ~rel:"r" ~update:u1 ~from:14 ~upto:20);
  Alcotest.check windows "empty range" [] (L.hop_windows lineage ~rel:"r" ~update:u1 ~from:5 ~upto:5);
  Alcotest.check windows "a relation with no windows" [ (0, 3, 0) ]
    (L.hop_windows lineage ~rel:"s" ~update:u1 ~from:0 ~upto:3)

let test_partition_mid_update_stays_sound () =
  (* cut a pipe while the update is in flight: the simulation must
     drain without crashing, every node's store stays consistent (no
     partial tuples), and a follow-up update after healing completes
     the materialisation *)
  let cfg = Topology.generate ~seed:91 Topology.Chain ~n:6
      ~params:{ Topology.default_params with Topology.tuples_per_node = 20 } in
  let sys = System.build_exn cfg in
  let _uid = System.start_update sys ~initiator:"n0" in
  let _ = System.run ~max_events:10 sys in
  let net = System.net sys in
  let p = Codb_net.Peer_id.of_string in
  Codb_net.Network.disconnect net (p "n2") (p "n3");
  let _ = System.run sys in
  (* sound: whatever arrived is a subset of what a full run produces *)
  let full = System.build_exn (Topology.generate ~seed:91 Topology.Chain ~n:6
      ~params:{ Topology.default_params with Topology.tuples_per_node = 20 }) in
  let _ = System.run_update full ~initiator:"n0" in
  let q = parse_query "o(x, y) <- data(x, y)" in
  List.iter
    (fun name ->
      let partial = System.local_answers sys ~at:name q in
      let complete = System.local_answers full ~at:name q in
      Alcotest.(check bool) (name ^ " sound") true
        (List.for_all (fun t -> List.exists (Tuple.equal t) complete) partial))
    (System.node_names sys);
  (* heal and re-run: now everything arrives *)
  Codb_net.Network.connect net (p "n2") (p "n3");
  let _ = System.run_update sys ~initiator:"n0" in
  check_tuples "n0 complete after healing"
    (System.local_answers full ~at:"n0" q)
    (System.local_answers sys ~at:"n0" q)

let test_divergent_ablation_is_bounded () =
  (* DESIGN.md: disabling subsumption dedup on a cyclic network with
     existential heads makes the fix-point diverge (every lap mints
     fresh nulls).  The event bound must stop it cleanly: the run ends,
     the update is simply not finished. *)
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); fact r(1, 10); }
node b { relation r(x: int, y: int); }
rule ab at a: r(x, z) <- b: r(x, y);
rule ba at b: r(x, z) <- a: r(x, y);
|}
  in
  (* both de-duplication devices must fail for the loop to run away:
     the sent cache alone recognises the repeated hole-tuple, and
     subsumption alone recognises the existing witness *)
  let opts =
    { Options.default with Options.use_subsumption_dedup = false;
      use_sent_cache = false }
  in
  let sys = System.build_exn ~opts cfg in
  let uid = System.start_update sys ~initiator:"a" in
  let events = System.run ~max_events:2000 sys in
  Alcotest.(check bool) "hit the bound" true (events >= 2000);
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "not finished (diverging)" false report.Report.ur_all_finished;
  (* either device alone restores convergence *)
  let converges opts =
    let sys = System.build_exn ~opts cfg in
    let uid = System.run_update sys ~initiator:"a" in
    (Option.get (Report.update_report (System.snapshots sys) uid)).Report.ur_all_finished
  in
  Alcotest.(check bool) "sent cache alone converges" true
    (converges { Options.default with Options.use_subsumption_dedup = false });
  Alcotest.(check bool) "subsumption alone converges" true
    (converges { Options.default with Options.use_sent_cache = false })

(* Under default options a rule pair can still diverge: the dedup
   treats an incoming marked null as a constant, so r(2, N1) at a
   yields r(N1, N2) at b, then r(N2, N3) at a, and so on.  The event
   bound cuts the run, and the cut is reported, not passed off as a
   finished update. *)
(* [codb update]'s report on the two-node divergent set, cut at 2 000
   events *)
let divergent_report =
  {|global update upd:a#1:
  nodes: 2 (some unfinished)
  duration: unknown (started 0.0000, not every node finished)
  cut: the event bound stopped the run before its fix-point
  data messages: 1999, control messages: 1001
  data volume: 161869 B
  new tuples: 1999, duplicates suppressed: 0, nulls created: 1999
  longest propagation path: 1999
  index probes: 0, relation scans: 2001
  rule ab           1000 msgs    81974 B   1000 tuples
  rule ba            999 msgs    79895 B    999 tuples|}

let test_divergence_is_reported () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); }
node b { relation r(x: int, y: int); fact r(1, 2); }
rule ab at a: r(x, z) <- b: r(y, x);
rule ba at b: r(x, z) <- a: r(y, x);
|}
  in
  let sys = System.build_exn cfg in
  let uid = System.start_update sys ~initiator:"a" in
  Alcotest.(check int) "ran to the bound" 2000 (System.run ~max_events:2000 sys);
  Alcotest.(check bool) "the cut is reported" false (System.quiescent sys);
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "not finished" false report.Report.ur_all_finished;
  Alcotest.(check bool) "nulls keep coming" true (report.Report.ur_nulls > 100);
  (* the printed report gives no duration for a cut run *)
  let printed = Fmt.str "%a" Report.pp_update_report report in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("printed: " ^ line) true
        (List.mem line (String.split_on_char '\n' printed)))
    [
      "  nodes: 2 (some unfinished)";
      "  duration: unknown (started 0.0000, not every node finished)";
    ];
  (* the report of a cut run says so, pinned whole; the line is absent
     when the caller does not say the run was cut *)
  let cut = Option.get (Report.update_report ~cut:true (System.snapshots sys) uid) in
  Alcotest.(check string) "the cut report" divergent_report
    (Fmt.str "%a" Report.pp_update_report cut);
  Alcotest.(check bool) "no cut line unless cut" false
    (List.exists
       (String.starts_with ~prefix:"  cut:")
       (String.split_on_char '\n' printed));
  (* a converging update drains the queue *)
  let chain = System.build_exn (Topology.generate ~seed:1 Topology.Chain ~n:4) in
  let _ = System.run_update chain ~initiator:"n0" in
  Alcotest.(check bool) "a finished run is quiescent" true (System.quiescent chain)

let test_soak_random_glav_network () =
  (* a larger random network with the full rule mix: terminates and
     saturates *)
  let edges =
    Topology.edges
      ~rng:(Codb_workload.Rng.make ~seed:92)
      (Topology.Random_graph 0.08) ~n:24
  in
  let backbone = List.init 23 (fun k -> (k, k + 1)) in
  let edges = edges @ List.filter (fun e -> not (List.mem e edges)) backbone in
  let spec =
    { Codb_workload.Glavgen.default_spec with
      Codb_workload.Glavgen.tuples_per_relation = 8 }
  in
  let cfg = Codb_workload.Glavgen.generate ~spec ~seed:92 ~edges ~n:24 () in
  let sys = System.build_exn cfg in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "terminates" true report.Report.ur_all_finished;
  Alcotest.(check int) "all nodes took part" 24 report.Report.ur_nodes;
  let saturated (r : Config.rule_decl) =
    let source_node = System.node sys r.Config.source in
    let importer = System.node sys r.Config.importer in
    let head_rel = r.Config.rule_query.Query.head.Codb_cq.Atom.rel in
    let derivable = Codb_core.Wrapper.eval_rule_full source_node.Node.store r in
    let target = Codb_relalg.Database.relation importer.Node.store head_rel in
    List.for_all (fun t -> Relation.subsumed target t) derivable
  in
  Alcotest.(check bool) "saturated" true
    (List.for_all saturated (System.config sys).Config.rules)

let suite =
  [
    Alcotest.test_case "chain materialises all data" `Quick test_chain_materialises;
    Alcotest.test_case "lineage records imports" `Quick test_lineage_records_imports;
    Alcotest.test_case "partition mid-update stays sound" `Quick
      test_partition_mid_update_stays_sound;
    Alcotest.test_case "lineage order" `Quick test_lineage_order;
    Alcotest.test_case "hop windows" `Quick test_hop_windows;
    Alcotest.test_case "soak: random GLAV network" `Slow test_soak_random_glav_network;
    Alcotest.test_case "divergent ablation is bounded" `Quick
      test_divergent_ablation_is_bounded;
    Alcotest.test_case "divergence is reported" `Quick test_divergence_is_reported;
    Alcotest.test_case "chain terminates and closes links" `Quick
      test_chain_terminates_and_closes;
    Alcotest.test_case "initiator position does not matter" `Quick
      test_chain_initiator_elsewhere;
    Alcotest.test_case "update is idempotent" `Quick test_update_idempotent;
    Alcotest.test_case "existential heads mint marked nulls" `Quick
      test_existential_head_creates_nulls;
    Alcotest.test_case "existential cycle terminates" `Quick
      test_existential_cycle_terminates;
    Alcotest.test_case "copy cycle reaches the union" `Quick
      test_copy_cycle_reaches_fixpoint;
    Alcotest.test_case "join rule with comparison" `Quick test_join_rule_across_relations;
    Alcotest.test_case "transitive dependency" `Quick test_transitive_join_dependency;
    Alcotest.test_case "mediator node forwards" `Quick test_mediator_node_forwards;
    Alcotest.test_case "inconsistency does not propagate" `Quick
      test_inconsistent_node_does_not_export;
    Alcotest.test_case "a constraint check stops at the first violation" `Quick
      test_constraint_check_stops_at_first_violation;
    Alcotest.test_case "duplicate suppression on diamonds" `Quick
      test_dedup_suppresses_duplicates;
    Alcotest.test_case "sent cache bounds clique traffic" `Quick
      test_sent_cache_prevents_resend;
    Alcotest.test_case "trivial update on a lonely node" `Quick
      test_no_acquaintances_trivial_update;
    Alcotest.test_case "two concurrent updates" `Quick test_concurrent_updates;
    Alcotest.test_case "grid update" `Quick test_grid_update_counts;
    Alcotest.test_case "link dependency computation" `Quick test_deps_relevance;
    Alcotest.test_case "ablation: naive delta, same fix-point" `Quick
      test_ablation_naive_delta_same_result;
    Alcotest.test_case "ablation: no sent cache, same fix-point" `Quick
      test_ablation_no_sent_cache_same_result_more_traffic;
  ]
