(* The demo experiments (DESIGN.md, per-experiment index).

   The VLDB'04 demo paper publishes no numeric tables — its stated
   goal is to "measure the performance of various networks arranged in
   different topologies" and to report, per node and aggregated by the
   super-peer: total execution time of an update, the number of query
   result messages per coordination rule, the data volume per message,
   and the longest update propagation path.  Each experiment below
   regenerates one such measurement as a table; EXPERIMENTS.md records
   a reference run. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Report = Codb_core.Report
module Options = Codb_core.Options
module Stats = Codb_core.Stats
module Parser = Codb_cq.Parser
module Config = Codb_cq.Config
module Value = Codb_relalg.Value
module Network = Codb_net.Network
module Datagen = Codb_workload.Datagen

let params ?(tuples = 100) ?(existential = 0.0) ?(comparison = 0.0) () =
  {
    Topology.tuples_per_node = tuples;
    profile = { Datagen.domain_size = 200; skew = 0.0 };
    existential_frac = existential;
    comparison_frac = comparison;
    connected = true;
  }

let data_query =
  match Parser.parse_query "ans(x, y) <- data(x, y)" with
  | Ok q -> q
  | Error e -> failwith e

let run_one ?opts ~params:p ~seed shape ~n ~initiator () =
  let sys = System.build_exn ?opts (Topology.generate ~params:p ~seed shape ~n) in
  let wall_start = Unix.gettimeofday () in
  let uid = System.run_update sys ~initiator in
  let wall = Unix.gettimeofday () -. wall_start in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  (sys, report, wall)

(* E1 — Table 1: one global update across the demo topologies. *)
let e1 () =
  let n = 12 in
  let shapes =
    [
      Topology.Chain; Topology.Ring; Topology.Star_in; Topology.Star_out;
      Topology.Binary_tree; Topology.Grid (3, 4); Topology.Random_graph 0.2;
      Topology.Clique;
    ]
  in
  let row shape =
    let _, r, wall = run_one ~params:(params ()) ~seed:100 shape ~n ~initiator:"n0" () in
    [
      Topology.shape_name shape;
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_control_msgs;
      Tables.i0 r.Report.ur_bytes;
      Tables.i0 r.Report.ur_new_tuples;
      Tables.i0 r.Report.ur_dup_suppressed;
      Tables.i0 r.Report.ur_longest_path;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:
      "E1 (Table 1) - global update across topologies (N=12, 100 tuples/node, seed \
       100)"
    ~header:
      [
        "topology"; "sim time (s)"; "data msgs"; "ctrl msgs"; "bytes"; "new tuples";
        "dups"; "longest path"; "wall (ms)";
      ]
    (List.map row shapes)

(* E2 — Table 2: scaling with the number of nodes. *)
let e2 () =
  let sizes = [ 2; 4; 8; 16; 32; 64 ] in
  let row shape n =
    let _, r, wall =
      run_one ~params:(params ~tuples:50 ()) ~seed:(200 + n) shape ~n ~initiator:"n0" ()
    in
    [
      Topology.shape_name shape;
      Tables.i0 n;
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_bytes;
      Tables.i0 r.Report.ur_longest_path;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:"E2 (Table 2) - scaling with network size (50 tuples/node)"
    ~header:
      [ "topology"; "N"; "sim time (s)"; "data msgs"; "bytes"; "longest path";
        "wall (ms)" ]
    (List.map (row Topology.Chain) sizes @ List.map (row Topology.Binary_tree) sizes)

(* E3 — Table 3: query-time answering vs. querying after a global
   update.  The crossover the paper motivates: per-query cost vs. a
   one-off materialisation. *)
let e3 () =
  let sizes = [ 2; 4; 8; 12; 16 ] in
  let row n =
    let p = params ~tuples:50 () in
    let cfg () = Topology.generate ~params:p ~seed:(300 + n) Topology.Chain ~n in
    (* query-time *)
    let sys_q = System.build_exn (cfg ()) in
    let outcome = System.run_query sys_q ~at:"n0" data_query in
    let query_time = outcome.System.qo_finished -. outcome.System.qo_started in
    (* materialise once, then query locally (zero network cost) *)
    let sys_u = System.build_exn (cfg ()) in
    let uid = System.run_update sys_u ~initiator:"n0" in
    let r = Option.get (Report.update_report (System.snapshots sys_u) uid) in
    let local = System.local_answers sys_u ~at:"n0" data_query in
    [
      Tables.i0 n;
      Tables.f4 query_time;
      Tables.i0 outcome.System.qo_data_msgs;
      Tables.i0 (List.length outcome.System.qo_answers);
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 (List.length local);
    ]
  in
  Tables.print
    ~title:
      "E3 (Table 3) - query-time fetch vs. global update + local query (chain, query \
       at head)"
    ~header:
      [
        "N"; "query sim (s)"; "query msgs"; "answers"; "update sim (s)"; "update msgs";
        "local answers";
      ]
    (List.map row sizes)

(* E4 — Figure A: per-coordination-rule traffic distribution, the
   statistics module's flagship report.  On a grid the traffic
   concentrates toward the sink corner, so the distribution is
   informative (on a strongly connected random graph every link ends
   up carrying the full closure exactly once, which is itself a
   property worth stating — see EXPERIMENTS.md). *)
let e4 () =
  let _, r, _ =
    run_one
      ~params:(params ~tuples:50 ())
      ~seed:400 (Topology.Grid (4, 4)) ~n:16 ~initiator:"n0" ()
  in
  let rows =
    List.map
      (fun (rule, (e : Stats.rule_traffic)) ->
        [
          rule;
          Tables.i0 e.rt_msgs;
          Tables.i0 e.rt_bytes;
          Tables.i0 e.rt_tuples;
          (if e.rt_msgs = 0 then "-"
           else Tables.f2 (float_of_int e.rt_bytes /. float_of_int e.rt_msgs));
        ])
      r.Report.ur_per_rule
  in
  let total_msgs =
    List.fold_left (fun acc (_, e) -> acc + e.Stats.rt_msgs) 0 r.Report.ur_per_rule
  in
  let total_bytes =
    List.fold_left (fun acc (_, e) -> acc + e.Stats.rt_bytes) 0 r.Report.ur_per_rule
  in
  Tables.print
    ~title:
      "E4 (Figure A) - messages and data volume per coordination rule (grid 4x4, 50 \
       tuples/node, seed 400)"
    ~header:[ "rule"; "msgs"; "bytes"; "tuples"; "bytes/msg" ]
    (rows @ [ [ "TOTAL"; Tables.i0 total_msgs; Tables.i0 total_bytes; "-"; "-" ] ])

(* E5 — Table 4: cyclic rule systems; the fix-point cost as the cycle
   grows, with and without existential heads. *)
let e5 () =
  let sizes = [ 2; 4; 8; 12; 16 ] in
  let row ~existential n =
    Value.reset_null_counter ();
    let p = params ~tuples:20 ~existential () in
    let _, r, wall = run_one ~params:p ~seed:(500 + n) Topology.Ring ~n ~initiator:"n0" () in
    [
      Tables.i0 n;
      (if existential > 0.0 then "yes" else "no");
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_new_tuples;
      Tables.i0 r.Report.ur_nulls;
      Tables.i0 r.Report.ur_longest_path;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:"E5 (Table 4) - cyclic coordination (rings, 20 tuples/node)"
    ~header:
      [
        "ring N"; "existential"; "sim time (s)"; "data msgs"; "new tuples"; "nulls";
        "longest path"; "wall (ms)";
      ]
    (List.map (row ~existential:0.0) sizes @ List.map (row ~existential:1.0) sizes)

(* E6 — Table 5: dynamic topology via the super-peer's rules file. *)
let e6 () =
  let n = 8 in
  let p = params ~tuples:50 () in
  let chain = Topology.generate ~params:p ~seed:600 Topology.Chain ~n in
  let sys = System.build_exn chain in
  let phase name uid =
    let r = Option.get (Report.update_report (System.snapshots sys) uid) in
    [
      name;
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_new_tuples;
      Tables.i0 r.Report.ur_dup_suppressed;
      Tables.i0 r.Report.ur_longest_path;
    ]
  in
  let u1 = System.run_update sys ~initiator:"n0" in
  let row1 = phase "chain, first update" u1 in
  let star = Topology.rules_only (Topology.generate ~params:p ~seed:600 Topology.Star_in ~n) in
  System.broadcast_rules sys star;
  let u2 = System.run_update sys ~initiator:"n0" in
  let row2 = phase "rewired to star-in, second update" u2 in
  (* fresh data at a leaf shows the new topology in action *)
  let n5 = System.node sys "n5" in
  ignore
    (Codb_relalg.Database.insert n5.Codb_core.Node.store "data"
       [| Value.Int 424242; Value.Str "late" |]);
  let u3 = System.run_update sys ~initiator:"n5" in
  let row3 = phase "fresh fact at n5, third update" u3 in
  Tables.print
    ~title:"E6 (Table 5) - runtime topology change via rules-file broadcast (N=8)"
    ~header:
      [ "phase"; "sim time (s)"; "data msgs"; "new tuples"; "dups"; "longest path" ]
    [ row1; row2; row3 ]

(* E7 — Table 6: the cost of existential heads (marked nulls). *)
let e7 () =
  let fracs = [ 0.0; 0.5; 1.0 ] in
  let row existential =
    Value.reset_null_counter ();
    let p = params ~tuples:50 ~existential () in
    let _, r, wall =
      run_one ~params:p ~seed:700 Topology.Chain ~n:8 ~initiator:"n0" ()
    in
    [
      Tables.f2 existential;
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_new_tuples;
      Tables.i0 r.Report.ur_nulls;
      Tables.i0 r.Report.ur_bytes;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:"E7 (Table 6) - existential head fraction (chain N=8, 50 tuples/node)"
    ~header:
      [
        "existential frac"; "sim time (s)"; "data msgs"; "new tuples"; "nulls"; "bytes";
        "wall (ms)";
      ]
    (List.map row fracs)

(* E8 — Table 7: ablation of the duplicate-suppression machinery.

   Plain copy rules cannot expose it (every delta derives only fresh
   tuples), so this experiment uses a hand-crafted network where the
   optimisations genuinely fire:

   - [psink] imports *projections* from two mid nodes: the same head
     tuple is re-derivable from many body tuples arriving in separate
     batches — that is what the per-link sent cache suppresses;
   - [esink] imports through two *existential* rules over the same
     data: the same hole-tuple arrives once per path — that is what
     null-aware pre-insert subsumption suppresses (without it, every
     arrival mints fresh nulls: null bloat). *)
let e8_network () =
  let rel_data = Codb_relalg.Schema.make "data" [ ("k", Value.Tint); ("y", Value.Tint) ] in
  let rel_proj = Codb_relalg.Schema.make "proj" [ ("k", Value.Tint) ] in
  let rel_anon = Codb_relalg.Schema.make "anon" [ ("k", Value.Tint); ("w", Value.Tint) ] in
  let facts ~lo ~hi ~stamp =
    List.concat_map
      (fun k ->
        List.map (fun j -> ("data", [| Value.Int k; Value.Int ((stamp * 1000) + (k * 10) + j) |]))
          [ 0; 1; 2 ])
      (List.init (hi - lo + 1) (fun idx -> lo + idx))
  in
  let node ?(facts = []) name relations =
    { Config.node_name = name; relations; facts; mediator = false; constraints = [] }
  in
  let rule rule_id importer source text =
    match Parser.parse_query text with
    | Ok rule_query -> { Config.rule_id; importer; source; rule_query }
    | Error e -> failwith e
  in
  {
    Config.nodes =
      [
        node "far" [ rel_data ] ~facts:(facts ~lo:0 ~hi:9 ~stamp:1);
        node "origin" [ rel_data ] ~facts:(facts ~lo:5 ~hi:14 ~stamp:2);
        node "mid1" [ rel_data ];
        node "mid2" [ rel_data ];
        node "psink" [ rel_proj ];
        node "esink" [ rel_anon ];
      ];
    rules =
      [
        rule "r_o_far" "origin" "far" "data(k, y) <- data(k, y)";
        rule "r_m1" "mid1" "origin" "data(k, y) <- data(k, y)";
        rule "r_m2" "mid2" "origin" "data(k, y) <- data(k, y)";
        rule "r_p1" "psink" "mid1" "proj(k) <- data(k, y)";
        rule "r_p2" "psink" "mid2" "proj(k) <- data(k, y)";
        rule "r_e1" "esink" "mid1" "anon(k, w) <- data(k, y)";
        rule "r_e2" "esink" "mid2" "anon(k, w) <- data(k, y)";
      ];
  }

let e8 () =
  let variants =
    [
      ("full algorithm", Options.default);
      ("no sent cache", { Options.default with Options.use_sent_cache = false });
      ( "no pre-insert subsumption",
        { Options.default with Options.use_subsumption_dedup = false } );
      ( "neither",
        { Options.default with Options.use_sent_cache = false;
          use_subsumption_dedup = false } );
      ("naive re-evaluation", { Options.default with Options.naive_delta = true });
    ]
  in
  let count_query = Parser.parse_query "a(k, w) <- anon(k, w)" in
  let count_query = match count_query with Ok q -> q | Error e -> failwith e in
  let row (name, opts) =
    Value.reset_null_counter ();
    let sys = System.build_exn ~opts (e8_network ()) in
    let wall_start = Unix.gettimeofday () in
    let uid = System.run_update sys ~initiator:"psink" in
    let wall = Unix.gettimeofday () -. wall_start in
    let r = Option.get (Report.update_report (System.snapshots sys) uid) in
    let esink_tuples = List.length (System.local_answers sys ~at:"esink" count_query) in
    [
      name;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_bytes;
      Tables.i0 r.Report.ur_dup_suppressed;
      Tables.i0 r.Report.ur_nulls;
      Tables.i0 esink_tuples;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:
      "E8 (Table 7) - duplicate-suppression ablation (projection + existential \
       diamond)"
    ~header:
      [ "variant"; "data msgs"; "bytes"; "dups"; "nulls"; "esink tuples"; "wall (ms)" ]
    (List.map row variants)

(* E11 — Table 9: three ways to get an answer at one node — query-time
   fetch (overlays, simple paths), query-dependent (scoped) update,
   full global update — compared on the same workload.  The scoped
   update is the middle ground the paper's DBM supports
   ("query-dependent update requests"): it materialises like the
   global algorithm but touches only the relevant part of the
   network. *)
let e11 () =
  let p = params ~tuples:50 () in
  let shapes =
    [ (Topology.Star_out, 12, "n1"); (Topology.Grid (3, 4), 12, "n0");
      (Topology.Chain, 12, "n0") ]
  in
  let row (shape, n, at) =
    let mk () = Topology.generate ~params:p ~seed:1100 shape ~n in
    (* query-time *)
    let sys_q = System.build_exn (mk ()) in
    let before = Network.counters (System.net sys_q) in
    let outcome = System.run_query sys_q ~at data_query in
    let after = Network.counters (System.net sys_q) in
    let q_msgs = after.Network.delivered - before.Network.delivered in
    let q_time = outcome.System.qo_finished -. outcome.System.qo_started in
    (* scoped update *)
    let sys_s = System.build_exn (mk ()) in
    let us = System.run_scoped_update sys_s ~at data_query in
    let rs = Option.get (Report.update_report (System.snapshots sys_s) us) in
    (* global update *)
    let sys_g = System.build_exn (mk ()) in
    let ug = System.run_update sys_g ~initiator:at in
    let rg = Option.get (Report.update_report (System.snapshots sys_g) ug) in
    [
      Printf.sprintf "%s@%s" (Topology.shape_name shape) at;
      Tables.f4 q_time;
      Tables.i0 q_msgs;
      Tables.f4 rs.Report.ur_duration;
      Tables.i0 (rs.Report.ur_data_msgs + rs.Report.ur_control_msgs);
      Tables.f4 rg.Report.ur_duration;
      Tables.i0 (rg.Report.ur_data_msgs + rg.Report.ur_control_msgs);
    ]
  in
  Tables.print
    ~title:
      "E11 (Table 9) - query-time vs query-dependent update vs global update (N=12, \
       50 tuples/node)"
    ~header:
      [
        "workload"; "query sim (s)"; "query msgs"; "scoped sim (s)"; "scoped msgs";
        "global sim (s)"; "global msgs";
      ]
    (List.map row shapes)

(* E10 — Table 8: topology discovery cost as TTL grows. *)
let e10 () =
  let p = params ~tuples:5 () in
  let row ttl =
    let sys =
      System.build_exn (Topology.generate ~params:p ~seed:1000 (Topology.Random_graph 0.1) ~n:32)
    in
    let before = Network.counters (System.net sys) in
    let start = Network.now (System.net sys) in
    let peers = System.discover sys ~at:"n0" ~ttl in
    let after = Network.counters (System.net sys) in
    [
      Tables.i0 ttl;
      Tables.i0 (List.length peers);
      Tables.i0 (after.Network.delivered - before.Network.delivered);
      Tables.i0 (after.Network.total_bytes - before.Network.total_bytes);
      Tables.f4 (Network.now (System.net sys) -. start);
    ]
  in
  Tables.print
    ~title:"E10 (Table 8) - discovery cost vs TTL (random N=32, p=0.1, seed 1000)"
    ~header:[ "ttl"; "peers found"; "messages"; "bytes"; "sim time (s)" ]
    (List.map row [ 0; 1; 2; 3; 4; 5 ])

(* E12 — Table 10: the heterogeneous GLAV workload (joins through the
   link graph, existential projections, filtered copies) across
   topologies — the full rule language the system supports, versus the
   plain schema-translation workload of E1. *)
let e12 () =
  let n = 8 in
  let shapes =
    [ Topology.Chain; Topology.Ring; Topology.Binary_tree; Topology.Clique ]
  in
  let spec mix =
    {
      Codb_workload.Glavgen.default_spec with
      Codb_workload.Glavgen.tuples_per_relation = 30;
      join_frac = (if mix then 0.4 else 0.0);
      existential_frac = (if mix then 0.3 else 0.0);
      comparison_frac = (if mix then 0.3 else 0.0);
    }
  in
  let row ~mix shape =
    Value.reset_null_counter ();
    let edges = Topology.edges shape ~n in
    let cfg = Codb_workload.Glavgen.generate ~spec:(spec mix) ~seed:1200 ~edges ~n () in
    let sys = System.build_exn cfg in
    let wall_start = Unix.gettimeofday () in
    let uid = System.run_update sys ~initiator:"n0" in
    let wall = Unix.gettimeofday () -. wall_start in
    let r = Option.get (Report.update_report (System.snapshots sys) uid) in
    [
      Topology.shape_name shape;
      (if mix then "join/proj/filter" else "copy only");
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_new_tuples;
      Tables.i0 r.Report.ur_nulls;
      Tables.i0 r.Report.ur_dup_suppressed;
      Tables.f2 (wall *. 1000.0);
    ]
  in
  Tables.print
    ~title:
      "E12 (Table 10) - heterogeneous GLAV workload (3 relations/node, 30 \
       tuples/relation, N=8)"
    ~header:
      [
        "topology"; "rule mix"; "sim time (s)"; "data msgs"; "new tuples"; "nulls";
        "dups"; "wall (ms)";
      ]
    (List.concat_map (fun shape -> [ row ~mix:false shape; row ~mix:true shape ]) shapes)

(* E13 — Table 11: sensitivity to the network cost model.  The
   simulated update duration must decompose as
   depth x latency + transfer costs — validating that the simulator's
   clock measures what the original demo's wall clock did, just under
   controlled parameters. *)
let e13 () =
  let p = params ~tuples:50 () in
  let row (latency, byte_cost) =
    let opts = { Options.default with Options.latency; byte_cost } in
    let cfg = Topology.generate ~params:p ~seed:1300 Topology.Chain ~n:8 in
    let sys = System.build_exn ~opts cfg in
    let uid = System.run_update sys ~initiator:"n0" in
    let r = Option.get (Report.update_report (System.snapshots sys) uid) in
    [
      Printf.sprintf "%gms" (latency *. 1000.0);
      Printf.sprintf "%gus/B" (byte_cost *. 1e6);
      Tables.f4 r.Report.ur_duration;
      Tables.i0 r.Report.ur_data_msgs;
      Tables.i0 r.Report.ur_bytes;
    ]
  in
  Tables.print
    ~title:"E13 (Table 11) - cost-model sensitivity (chain N=8, 50 tuples/node)"
    ~header:[ "latency"; "byte cost"; "sim time (s)"; "data msgs"; "bytes" ]
    (List.map row
       [
         (0.0001, 0.000001); (0.001, 0.000001); (0.01, 0.000001); (0.001, 0.0);
         (0.001, 0.00001);
       ])

(* E14 — planner ablation (the cost-based join planner of lib/cq/plan
   with single-column vs composite index probes), on a skewed
   multi-join workload.  Implemented in Planner_bench, whose tiny run
   is also a section of the runtest gate. *)
let e14 = Planner_bench.run

let all = [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
            ("e7", e7); ("e8", e8); ("e10", e10); ("e11", e11);
            ("e12", e12); ("e13", e13); ("e14", e14) ]

let run names =
  let wanted (name, _) = names = [] || List.mem name names in
  List.iter (fun (_, f) -> f ()) (List.filter wanted all)
