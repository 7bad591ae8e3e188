(* Scale benchmark (experiment E19 and `make scale-bench`).

   The storage engine at scale: the production [Relation] (interned
   values packed into tagged ints, columnar chunk storage, indexes
   keyed by packed ints — reported as engine "packed-columnar") under
   a peer-to-peer network's per-node workloads.

   The workload is >= 1k nodes, each with two string-columned
   relations (600 + 400 tuples, so >= 1M tuples network-wide) over
   Zipf-skewed domains of long shared-prefix strings — the regime
   where boxed comparisons would walk strings on every probe while
   packed comparisons stay on ints.  Per node, three phases are timed
   separately:

     ingest    bulk insert plus duplicate re-offers (set dedup path)
     subsume   null-aware membership probes, ground and hole-carrying
     query     three shapes through the planned evaluator, several
               runs each, timed separately:
                 chain    full join, answer-heavy
                 hub      constant-selective composite probe
                 filter   the chain join through a selective equality
                          filter: full join traffic, few survivors —
                          the evaluator-bound shape (per-answer boxing
                          is negligible, so what remains is the join
                          core itself)

   The observables — tuples admitted, subsumption verdicts, answer
   counts, an order-insensitive content digest of the answers, and the
   evaluator's probe/scan counters — are deterministic.  The full run
   is written to BENCH_scale.json; the runtest gate runs the 8-node
   tiny workload and pins those observables. *)

module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Schema = Codb_relalg.Schema
module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Eval = Codb_cq.Eval
module Term = Codb_cq.Term
module Atom = Codb_cq.Atom
module Query = Codb_cq.Query
module Rng = Codb_workload.Rng

let r_schema = Schema.make "r" [ ("a", Value.Tstring); ("b", Value.Tstring) ]

let s_schema = Schema.make "s" [ ("b", Value.Tstring); ("c", Value.Tstring) ]

type workload = {
  wl_nodes : int;
  wl_r : int;  (* r tuples per node *)
  wl_s : int;  (* s tuples per node *)
  wl_dom_a : int;
  wl_dom_b : int;
  wl_dom_c : int;
  wl_skew : float;
  wl_query_runs : int;
}

let full_workload =
  {
    wl_nodes = 1024;
    wl_r = 600;
    wl_s = 400;
    wl_dom_a = 300;
    wl_dom_b = 200;
    wl_dom_c = 250;
    wl_skew = 1.0;
    wl_query_runs = 3;
  }

let tiny_workload = { full_workload with wl_nodes = 8 }

let total_tuples wl = wl.wl_nodes * (wl.wl_r + wl.wl_s)

(* Long strings with a long shared prefix: boxed equality must walk
   the prefix before it can differ, packed equality never looks. *)
let str_of ~node ~tag rank =
  Value.Str (Printf.sprintf "codb-scale-%s-node%04d-%s-%06d" "wh" node tag rank)

let gen_node_tuples wl ~node =
  let rng = Rng.make ~seed:(7177 + node) in
  let zipf n = Rng.zipf rng ~n ~s:wl.wl_skew in
  let r_tuples =
    List.init wl.wl_r (fun _ ->
        [| str_of ~node ~tag:"a" (zipf wl.wl_dom_a); str_of ~node ~tag:"b" (zipf wl.wl_dom_b) |])
  in
  let s_tuples =
    List.init wl.wl_s (fun _ ->
        [| str_of ~node ~tag:"b" (zipf wl.wl_dom_b); str_of ~node ~tag:"c" (zipf wl.wl_dom_c) |])
  in
  (r_tuples, s_tuples)

let chain_query =
  Query.make
    ~head:(Atom.make "ans" [ Term.Var "a"; Term.Var "c" ])
    ~body:
      [
        Atom.make "r" [ Term.Var "a"; Term.Var "b" ];
        Atom.make "s" [ Term.Var "b"; Term.Var "c" ];
      ]
    ()

(* hub-selective: the most frequent [a] of this node bound as a
   constant, so the plan opens with a composite probe *)
let hub_query ~node =
  Query.make
    ~head:(Atom.make "ans" [ Term.Var "c" ])
    ~body:
      [
        Atom.make "r" [ Term.Cst (str_of ~node ~tag:"a" 1); Term.Var "b" ];
        Atom.make "s" [ Term.Var "b"; Term.Var "c" ];
      ]
    ()

(* evaluator-bound: the same chain join forced through a selective
   equality filter on [a].  The planner scans [s] first (smaller) and
   probes [r] per binding, and [a] only becomes ground at that final
   step — the filter cannot be pushed before the join, so both
   engines pay the full join's probe-and-match traffic while only a
   few percent of the matches survive to be boxed.  Timing this shape
   measures the join core, not answer materialisation. *)
let filter_query ~node =
  Query.make
    ~head:(Atom.make "ans" [ Term.Var "a"; Term.Var "c" ])
    ~body:
      [
        Atom.make "r" [ Term.Var "a"; Term.Var "b" ];
        Atom.make "s" [ Term.Var "b"; Term.Var "c" ];
      ]
    ~comparisons:
      [ { Query.left = Term.Var "a"; op = Query.Eq; right = Term.Cst (str_of ~node ~tag:"a" 17) } ]
    ()

(* ---- equivalence digest ---------------------------------------------- *)

(* FNV-1a over value contents ({!Tuple.digest_fold}): independent of
   intern-table slot order, so digests compare across processes and
   do not depend on what else the process interned first.  [Eval.answer_rows] returns answers in
   sorted order, so the fold is order-stable. *)
let tuples_digest h rows = Tuple.digest_fold h (List.map Codb_relalg.Row.to_tuple rows)

(* the engine's name in the JSON and the gate *)
let engine_name = "packed-columnar"

(* ---- measurement ----------------------------------------------------- *)

type metrics = {
  mutable ingest_s : float;
  mutable subsume_s : float;
  mutable query_s : float;  (* chain + hub + filter *)
  mutable chain_s : float;
  mutable hub_s : float;
  mutable filter_s : float;
  mutable dups : int;
  mutable subsumed_yes : int;
  mutable answers : int;
  mutable digest : int;
  mutable probes : int;
  mutable scans : int;
  mutable alloc_bytes : float;
}

let fresh_metrics () =
  {
    ingest_s = 0.;
    subsume_s = 0.;
    query_s = 0.;
    chain_s = 0.;
    hub_s = 0.;
    filter_s = 0.;
    dups = 0;
    subsumed_yes = 0;
    answers = 0;
    digest = 0;
    probes = 0;
    scans = 0;
    alloc_bytes = 0.;
  }

(* Bytes allocated so far, exactly: [Gc.minor_words] counts every minor
   word, the current minor heap's included, where [Gc.allocated_bytes]
   counts the minor heap only as collections empty it; [Gc.counters]'
   major words less its promoted words are the words allocated straight
   into the major heap. *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let run_node wl ~node m =
  let r_tuples, s_tuples = gen_node_tuples wl ~node in
  let reoffer_r = List.filteri (fun k _ -> k mod 10 = 0) r_tuples in
  let reoffer_s = List.filteri (fun k _ -> k mod 10 = 0) s_tuples in
  let alloc0 = allocated_bytes () in
  (* ingest *)
  let t0 = Unix.gettimeofday () in
  let db = Database.create [ r_schema; s_schema ] in
  ignore (Database.insert_all db "r" r_tuples);
  ignore (Database.insert_all db "s" s_tuples);
  let offered = List.length reoffer_r + List.length reoffer_s in
  let fresh =
    List.length (Database.insert_all db "r" reoffer_r)
    + List.length (Database.insert_all db "s" reoffer_s)
  in
  m.dups <- m.dups + (offered - fresh);
  m.ingest_s <- m.ingest_s +. (Unix.gettimeofday () -. t0);
  (* subsume: ground hits, ground misses, hole-carrying probes *)
  let t0 = Unix.gettimeofday () in
  let yes = ref 0 in
  let subsumed t = Relation.subsumed (Database.relation db "r") t in
  List.iteri
    (fun k t ->
      if k mod 7 = 0 then begin
        if subsumed t then incr yes;
        if subsumed [| t.(0); Value.Str "codb-scale-absent" |] then incr yes;
        if subsumed [| t.(0); Value.Hole 0 |] then incr yes;
        if subsumed [| Value.Hole 0; t.(1) |] then incr yes
      end)
    r_tuples;
  m.subsumed_yes <- m.subsumed_yes + !yes;
  m.subsume_s <- m.subsume_s +. (Unix.gettimeofday () -. t0);
  (* query: several planned-evaluator runs over each shape, each shape
     timed on its own (the filter shape is the evaluator-bound one) *)
  let source = Eval.of_database db in
  let hub = hub_query ~node in
  let filter = filter_query ~node in
  let before = Eval.counters () in
  let chain_answers = ref [] and hub_answers = ref [] and filter_answers = ref [] in
  let shape answers q =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to wl.wl_query_runs do
      answers := Eval.answer_rows source q
    done;
    Unix.gettimeofday () -. t0
  in
  let chain_s = shape chain_answers chain_query in
  let hub_s = shape hub_answers hub in
  let filter_s = shape filter_answers filter in
  m.chain_s <- m.chain_s +. chain_s;
  m.hub_s <- m.hub_s +. hub_s;
  m.filter_s <- m.filter_s +. filter_s;
  m.query_s <- m.query_s +. chain_s +. hub_s +. filter_s;
  let after = Eval.counters () in
  m.probes <- m.probes + (after.Eval.probes - before.Eval.probes);
  m.scans <- m.scans + (after.Eval.scans - before.Eval.scans);
  m.answers <-
    m.answers + List.length !chain_answers + List.length !hub_answers
    + List.length !filter_answers;
  m.digest <-
    tuples_digest
      (tuples_digest (tuples_digest m.digest !chain_answers) !hub_answers)
      !filter_answers;
  m.alloc_bytes <- m.alloc_bytes +. (allocated_bytes () -. alloc0)

let measure wl =
  let m = fresh_metrics () in
  for node = 0 to wl.wl_nodes - 1 do
    run_node wl ~node m
  done;
  m

let print_table wl m =
  Tables.print
    ~title:
      (Printf.sprintf "E19 - storage-engine scale bench (%d nodes, %d tuples, zipf %.1f)"
         wl.wl_nodes (total_tuples wl) wl.wl_skew)
    ~header:
      [ "engine"; "ingest s"; "subsume s"; "chain s"; "hub s"; "filter s"; "probes";
        "scans"; "answers"; "alloc MB" ]
    [
      [
        engine_name;
        Tables.f2 m.ingest_s;
        Tables.f2 m.subsume_s;
        Tables.f2 m.chain_s;
        Tables.f2 m.hub_s;
        Tables.f2 m.filter_s;
        Tables.i0 m.probes;
        Tables.i0 m.scans;
        Tables.i0 m.answers;
        Tables.f2 (m.alloc_bytes /. 1048576.0);
      ];
    ]

let fields wl m =
  Emit.(
    Obj
      [
        ("benchmark", Str "scale-storage");
        ( "workload",
          Obj
            [
              ("nodes", Int wl.wl_nodes); ("r_per_node", Int wl.wl_r);
              ("s_per_node", Int wl.wl_s); ("total_tuples", Int (total_tuples wl));
              ("dom_a", Int wl.wl_dom_a); ("dom_b", Int wl.wl_dom_b);
              ("dom_c", Int wl.wl_dom_c); ("skew", Num wl.wl_skew);
              ("query_runs", Int wl.wl_query_runs);
            ] );
        ( "engines",
          List
            [
              Obj
                [
                  ("name", Str engine_name); ("ingest_s", Measured (6, m.ingest_s));
                  ("subsume_s", Measured (6, m.subsume_s));
                  ("query_s", Measured (6, m.query_s)); ("chain_s", Measured (6, m.chain_s));
                  ("hub_s", Measured (6, m.hub_s)); ("filter_s", Measured (6, m.filter_s));
                  ("probes", Int m.probes); ("scans", Int m.scans); ("dups", Int m.dups);
                  ("subsumed_yes", Int m.subsumed_yes); ("answers", Int m.answers);
                  ("digest", Int m.digest);
                  ("allocated_mb", Measured (2, m.alloc_bytes /. 1048576.0));
                ];
            ] );
        ( "top_heap_mwords",
          Measured (1, float_of_int (Gc.quick_stat ()).Gc.top_heap_words /. 1.0e6) );
      ])

let gate () = fields tiny_workload (measure tiny_workload)

let run () =
  let m = measure full_workload in
  print_table full_workload m;
  Emit.json ~path:"BENCH_scale.json" (fields full_workload m)
