(* Planner ablation benchmark (experiment E14).

   A multi-join workload with skewed relation sizes — the triangle
   query

     ans(x, z) <- e(x, y), f(y, z), e(x, z)

   over a large Zipf-skewed edge relation [e] and a small [f] — is
   evaluated two ways:

     single-column  the cost-based plan, probes capped at one column
     composite      the cost-based plan with composite index probes
                    (the default evaluator configuration)

   The closing atom e(x, z) arrives with both arguments bound: the
   composite plan answers it with one O(1) probe on both columns,
   while the single-column plan scans the whole x-bucket of a
   (skew-heavy) hub vertex for every candidate binding.  Both variants
   must find the same answers; the runtest gate runs the tiny
   workload and pins its counts. *)

module Database = Codb_relalg.Database
module Schema = Codb_relalg.Schema
module Value = Codb_relalg.Value
module Eval = Codb_cq.Eval
module Parser = Codb_cq.Parser
module Rng = Codb_workload.Rng
module Datagen = Codb_workload.Datagen

let e_schema = Schema.make "e" [ ("a", Value.Tint); ("b", Value.Tint) ]

let f_schema = Schema.make "f" [ ("b", Value.Tint); ("c", Value.Tint) ]

let triangle_query =
  match Parser.parse_query "ans(x, z) <- e(x, y), f(y, z), e(x, z)" with
  | Ok q -> q
  | Error e -> failwith e

type workload = { wl_e : int; wl_f : int; wl_domain : int; wl_skew : float }

let workload ~tiny =
  if tiny then { wl_e = 600; wl_f = 60; wl_domain = 100; wl_skew = 1.0 }
  else { wl_e = 20_000; wl_f = 500; wl_domain = 1_000; wl_skew = 1.0 }

let make_db wl =
  let rng = Rng.make ~seed:1404 in
  let profile = { Datagen.domain_size = wl.wl_domain; skew = wl.wl_skew } in
  let db = Database.create [ e_schema; f_schema ] in
  ignore (Database.insert_all db "e" (Datagen.tuples rng profile e_schema ~count:wl.wl_e));
  ignore (Database.insert_all db "f" (Datagen.tuples rng profile f_schema ~count:wl.wl_f));
  db

type variant = { v_name : string; v_max_probe_cols : int option }

let variants =
  [
    { v_name = "single-column"; v_max_probe_cols = Some 1 };
    { v_name = "composite"; v_max_probe_cols = None };
  ]

type measurement = {
  m_name : string;
  m_answers : int;
  m_runs : int;
  m_wall_s : float;  (* total wall time of the timed runs *)
  m_ops_per_sec : float;
  m_probes : int;  (* per run *)
  m_scans : int;  (* per run *)
}

let measure ~runs wl v =
  (* fresh database per variant so lazily built indexes are paid for
     (and warmed) inside the variant being measured *)
  let db = make_db wl in
  let source = Eval.of_database db in
  let eval () =
    Eval.answer_rows ?max_probe_cols:v.v_max_probe_cols source triangle_query
  in
  (* warm-up: builds the variant's indexes and yields counters/answers *)
  let before = Eval.counters () in
  let answers = eval () in
  let after = Eval.counters () in
  let start = Unix.gettimeofday () in
  for _ = 1 to runs do
    ignore (eval ())
  done;
  let wall = Unix.gettimeofday () -. start in
  {
    m_name = v.v_name;
    m_answers = List.length answers;
    m_runs = runs;
    m_wall_s = wall;
    m_ops_per_sec = (if wall > 0.0 then float_of_int runs /. wall else 0.0);
    m_probes = after.Eval.probes - before.Eval.probes;
    m_scans = after.Eval.scans - before.Eval.scans;
  }

let measure_all ~tiny () =
  let wl = workload ~tiny in
  let runs = if tiny then 3 else 5 in
  let measurements = List.map (measure ~runs wl) variants in
  (* the ablation only varies the access paths, never the semantics *)
  (match measurements with
  | first :: rest ->
      List.iter
        (fun m ->
          if m.m_answers <> first.m_answers then
            failwith
              (Printf.sprintf "planner ablation disagrees: %s found %d answers, %s %d"
                 first.m_name first.m_answers m.m_name m.m_answers))
        rest
  | [] -> ());
  (wl, measurements)

let print_table wl measurements =
  Tables.print
    ~title:
      (Printf.sprintf
         "E14 - planner ablation (triangle join, e=%d zipf(%.1f) tuples, f=%d)"
         wl.wl_e wl.wl_skew wl.wl_f)
    ~header:[ "variant"; "ms/run"; "ops/sec"; "probes/run"; "scans/run"; "answers" ]
    (List.map
       (fun m ->
         [
           m.m_name;
           Tables.f2 (1000.0 *. m.m_wall_s /. float_of_int m.m_runs);
           Tables.f2 m.m_ops_per_sec;
           Tables.i0 m.m_probes;
           Tables.i0 m.m_scans;
           Tables.i0 m.m_answers;
         ])
       measurements)

(* The counted part of the tiny run, for the runtest gate. *)
let gate () =
  let wl, measurements = measure_all ~tiny:true () in
  Emit.(
    Obj
      [
        ( "workload",
          Obj
            [
              ("e_tuples", Int wl.wl_e); ("f_tuples", Int wl.wl_f);
              ("domain", Int wl.wl_domain); ("skew", Num wl.wl_skew);
            ] );
        ( "experiments",
          List
            (List.map
               (fun m ->
                 Obj
                   [
                     ("name", Str m.m_name); ("runs", Int m.m_runs);
                     ("probes_per_run", Int m.m_probes);
                     ("scans_per_run", Int m.m_scans); ("answers", Int m.m_answers);
                   ])
               measurements) );
      ])

let run () =
  let wl, measurements = measure_all ~tiny:false () in
  print_table wl measurements
