(* Bechamel micro-benchmarks of the engine primitives:
   conjunctive-query evaluation (scan / join / self-join), semi-naive
   delta steps, relation insertion, rule-file parsing and CQ
   containment. *)

open Bechamel
open Toolkit
module Schema = Codb_relalg.Schema
module Value = Codb_relalg.Value
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Eval = Codb_cq.Eval
module Parser = Codb_cq.Parser
module Pretty = Codb_cq.Pretty
module Containment = Codb_cq.Containment
module Topology = Codb_core.Topology
module Rng = Codb_workload.Rng
module Datagen = Codb_workload.Datagen

let r_schema = Schema.make "r" [ ("a", Value.Tint); ("b", Value.Tint) ]

let s_schema = Schema.make "s" [ ("b", Value.Tint); ("c", Value.Tint) ]

let parse_query text =
  match Parser.parse_query text with Ok q -> q | Error e -> failwith e

let make_db size =
  let rng = Rng.make ~seed:size in
  let profile = { Datagen.domain_size = max 10 (size / 4); skew = 0.0 } in
  let db = Database.create [ r_schema; s_schema ] in
  ignore (Database.insert_all db "r" (Datagen.tuples rng profile r_schema ~count:size));
  ignore (Database.insert_all db "s" (Datagen.tuples rng profile s_schema ~count:size));
  db

let scan_query = parse_query "ans(x, y) <- r(x, y)"

let join_query = parse_query "ans(x, c) <- r(x, b), s(b, c)"

let self_join_query = parse_query "ans(x, z) <- r(x, y), r(y, z)"

let eval_test name query size =
  let db = make_db size in
  let source = Eval.of_database db in
  Test.make ~name:(Printf.sprintf "%s/%d" name size)
    (Staged.stage (fun () -> ignore (Eval.answer_rows source query)))

(* the same join without hash indexes: the ablation for the
   index-probing access path *)
let eval_noindex_test name query size =
  let db = make_db size in
  let source =
    let rows rel = List.map Codb_relalg.Row.of_tuple (Database.tuples db rel) in
    Eval.source_of_alist [ ("r", rows "r"); ("s", rows "s") ]
  in
  Test.make ~name:(Printf.sprintf "%s-noindex/%d" name size)
    (Staged.stage (fun () -> ignore (Eval.answer_rows source query)))

let delta_test size =
  let db = make_db size in
  let source = Eval.of_database db in
  let rng = Rng.make ~seed:(size + 1) in
  let profile = { Datagen.domain_size = max 10 (size / 4); skew = 0.0 } in
  let since = Relation.cardinal (Database.relation db "r") in
  ignore (Database.insert_all db "r" (Datagen.tuples rng profile r_schema ~count:10));
  (* prepared once, as the protocols do; the table is emptied before
     each run, so every run derives the window's heads again *)
  let into = Codb_relalg.Row.Table.create 16 in
  let prepared = Eval.prepare ~into source join_query in
  Test.make ~name:(Printf.sprintf "delta-join/%d" size)
    (Staged.stage (fun () ->
         Codb_relalg.Row.Table.reset into;
         ignore (Eval.run ~delta_rel:"r" ~since prepared)))

let insert_test size =
  let rng = Rng.make ~seed:size in
  let profile = { Datagen.domain_size = 1000; skew = 0.0 } in
  let tuples = Datagen.tuples rng profile r_schema ~count:size in
  Test.make ~name:(Printf.sprintf "relation-insert/%d" size)
    (Staged.stage (fun () ->
         let rel = Relation.create r_schema in
         ignore (Relation.insert_all rel tuples)))

let parse_test n =
  let text =
    Pretty.config_to_string
      (Topology.generate ~seed:1
         ~params:{ Topology.default_params with Topology.tuples_per_node = 20 }
         Topology.Chain ~n)
  in
  Test.make ~name:(Printf.sprintf "parse-config/%d-nodes" n)
    (Staged.stage (fun () ->
         match Parser.parse_config text with Ok _ -> () | Error e -> failwith e))

let containment_test () =
  let q1 = parse_query "ans(x) <- r(x, y), s(y, z), r(z, w)" in
  let q2 = parse_query "ans(x) <- r(x, y), s(y, z)" in
  Test.make ~name:"containment"
    (Staged.stage (fun () -> ignore (Containment.contained q1 q2)))

(* null-aware duplicate suppression: one hole-carrying probe against a
   relation of [size] tuples (the update algorithm runs one per
   incoming tuple, so this is its inner loop) *)
let subsumed_test size =
  let rng = Rng.make ~seed:size in
  let profile = { Datagen.domain_size = max 10 (size / 4); skew = 0.0 } in
  let rel = Relation.create r_schema in
  ignore (Relation.insert_all rel (Datagen.tuples rng profile r_schema ~count:size));
  let probes =
    List.map
      (fun t -> [| t.(0); Value.Hole 0 |])
      (Datagen.tuples rng profile r_schema ~count:64)
  in
  Test.make ~name:(Printf.sprintf "subsumed-holes/%d" size)
    (Staged.stage (fun () ->
         List.iter (fun probe -> ignore (Relation.subsumed rel probe)) probes))

(* zone-map chunk skipping across selectivities: a range scan over a
   key-ordered packed relation.  [pct] is the fraction of the key space
   the predicate keeps — at 1% almost every 4096-row chunk is skipped,
   at 100% none is. *)
let zone_scan_test ~pct size =
  let db = Database.create [ r_schema ] in
  for k = 0 to size - 1 do
    ignore (Database.insert db "r" [| Value.Int k; Value.Int (k * 7 mod 1009) |])
  done;
  let source = Eval.of_database db in
  let cutoff = size * pct / 100 in
  let q = parse_query (Printf.sprintf "ans(x, y) <- r(x, y), x < %d" cutoff) in
  Test.make
    ~name:(Printf.sprintf "zone-scan/%d%%/%d" pct size)
    (Staged.stage (fun () -> ignore (Eval.answer_rows source q)))

let update_test n =
  let cfg =
    Topology.generate ~seed:42
      ~params:{ Topology.default_params with Topology.tuples_per_node = 20 }
      Topology.Chain ~n
  in
  Test.make ~name:(Printf.sprintf "global-update/chain-%d" n)
    (Staged.stage (fun () ->
         let sys = Codb_core.System.build_exn cfg in
         ignore (Codb_core.System.run_update sys ~initiator:"n0")))

(* Built on demand: every test sets up its data when made, which
   other harness commands must not pay for. *)
let tests () =
  Test.make_grouped ~name:"codb"
    [
      eval_test "scan" scan_query 100;
      eval_test "scan" scan_query 1000;
      eval_test "join" join_query 100;
      eval_test "join" join_query 1000;
      eval_noindex_test "join" join_query 1000;
      eval_test "self-join" self_join_query 100;
      delta_test 1000;
      delta_test 10000;
      insert_test 1000;
      subsumed_test 1000;
      subsumed_test 10000;
      parse_test 8;
      parse_test 32;
      containment_test ();
      zone_scan_test ~pct:1 16384;
      zone_scan_test ~pct:25 16384;
      zone_scan_test ~pct:100 16384;
      update_test 4;
      update_test 8;
    ]

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (estimate :: _) -> estimate
          | Some [] | None -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols with Some r -> Tables.f4 r | None -> "-"
        in
        (name, ns, r2) :: acc)
      results []
  in
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows in
  Tables.print ~title:"micro-benchmarks (bechamel, OLS on monotonic clock)"
    ~header:[ "benchmark"; "ns/run"; "r^2" ]
    (List.map
       (fun (name, ns, r2) ->
         [ name; (if Float.is_nan ns then "-" else Printf.sprintf "%.0f" ns); r2 ])
       rows)
