open Helpers

(* r(a,b), s(b,c):
   r = {(1,10), (2,20), (3,10)}
   s = {(10,"x"), (20,"y")} *)
let sample_db () =
  db_of [ r_schema; s_schema ]
    [
      ("r", tup [ i 1; i 10 ]);
      ("r", tup [ i 2; i 20 ]);
      ("r", tup [ i 3; i 10 ]);
      ("s", tup [ i 10; s "x" ]);
      ("s", tup [ i 20; s "y" ]);
    ]

let test_single_atom_scan () =
  let db = sample_db () in
  let q = parse_query "ans(x, y) <- r(x, y)" in
  let answers = answer_tuples (Eval.of_database db) q in
  check_tuples "all of r"
    [ tup [ i 1; i 10 ]; tup [ i 2; i 20 ]; tup [ i 3; i 10 ] ]
    answers

let test_join () =
  let db = sample_db () in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let answers = answer_tuples (Eval.of_database db) q in
  check_tuples "join"
    [ tup [ i 1; s "x" ]; tup [ i 2; s "y" ]; tup [ i 3; s "x" ] ]
    answers

let test_constant_selection () =
  let db = sample_db () in
  let q = parse_query "ans(y) <- r(1, y)" in
  check_tuples "constant in atom" [ tup [ i 10 ] ]
    (answer_tuples (Eval.of_database db) q)

let test_repeated_variable () =
  let db =
    db_of [ r_schema ] [ ("r", tup [ i 1; i 1 ]); ("r", tup [ i 1; i 2 ]) ]
  in
  let q = parse_query "ans(x) <- r(x, x)" in
  check_tuples "diagonal" [ tup [ i 1 ] ] (answer_tuples (Eval.of_database db) q)

let test_comparisons () =
  let db = sample_db () in
  let q = parse_query "ans(x, b) <- r(x, b), b >= 20" in
  check_tuples "b >= 20" [ tup [ i 2; i 20 ] ]
    (answer_tuples (Eval.of_database db) q);
  let q2 = parse_query "ans(x) <- r(x, b), x != 3, b = 10" in
  check_tuples "x != 3, b = 10" [ tup [ i 1 ] ]
    (answer_tuples (Eval.of_database db) q2)

let test_variable_to_variable_comparison () =
  let db =
    db_of [ r_schema ] [ ("r", tup [ i 1; i 5 ]); ("r", tup [ i 7; i 5 ]) ]
  in
  let q = parse_query "ans(x, y) <- r(x, y), x < y" in
  check_tuples "x < y" [ tup [ i 1; i 5 ] ]
    (answer_tuples (Eval.of_database db) q)

let test_self_join () =
  (* paths of length 2 in r seen as an edge relation *)
  let db =
    db_of [ r_schema ]
      [ ("r", tup [ i 1; i 2 ]); ("r", tup [ i 2; i 3 ]); ("r", tup [ i 3; i 4 ]) ]
  in
  let q = parse_query "ans(x, z) <- r(x, y), r(y, z)" in
  check_tuples "two-step paths"
    [ tup [ i 1; i 3 ]; tup [ i 2; i 4 ] ]
    (answer_tuples (Eval.of_database db) q)

let test_empty_relation () =
  let db = db_of [ r_schema; s_schema ] [ ("r", tup [ i 1; i 10 ]) ] in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  check_tuples "empty join" [] (answer_tuples (Eval.of_database db) q)

let test_unknown_relation_is_empty () =
  let db = sample_db () in
  let q = parse_query "ans(x) <- zzz(x)" in
  check_tuples "unknown rel" [] (answer_tuples (Eval.of_database db) q)

let test_nulls_join_by_identity () =
  let null = Value.fresh_null ~rule:"t" in
  let other = Value.fresh_null ~rule:"t" in
  let rn = Schema.make "rn" [ ("a", Value.Tint); ("b", Value.Tint) ] in
  let sn = Schema.make "sn" [ ("b", Value.Tint); ("c", Value.Tint) ] in
  let db =
    db_of [ rn; sn ]
      [ ("rn", tup [ i 1; null ]); ("sn", tup [ null; i 7 ]); ("sn", tup [ other; i 8 ]) ]
  in
  let q = parse_query "ans(x, c) <- rn(x, b), sn(b, c)" in
  check_tuples "join through the same null" [ tup [ i 1; i 7 ] ]
    (answer_tuples (Eval.of_database db) q)

(* A deliberately naive reference evaluator: enumerate all tuple
   combinations, check every atom and comparison.  Used to validate
   the real evaluator on the same inputs; it reads the database's
   tuples directly, never through [Eval]. *)
let reference_substs db (q : Query.t) =
  let tuples_of a =
    match Database.relation_opt db a.Atom.rel with
    | None -> []
    | Some r ->
        List.filter
          (fun t -> Array.length t = List.length a.Atom.args)
          (Relation.to_list r)
  in
  let rec assignments subst = function
    | [] -> [ subst ]
    | a :: rest ->
        List.concat_map
          (fun tuple ->
            let bind acc (term, value) =
              match acc with
              | None -> None
              | Some sub -> (
                  match term with
                  | Term.Cst cst -> if Value.equal cst value then acc else None
                  | Term.Var var -> (
                      match Codb_cq.Subst.find var sub with
                      | Some bound -> if Value.equal bound value then acc else None
                      | None -> Some (Codb_cq.Subst.bind var value sub)))
            in
            let pairs = List.combine a.Atom.args (Array.to_list tuple) in
            match List.fold_left bind (Some subst) pairs with
            | Some sub -> assignments sub rest
            | None -> [])
          (tuples_of a)
  in
  let satisfies sub (cmp : Query.comparison) =
    match
      (Codb_cq.Subst.apply_term sub cmp.Query.left, Codb_cq.Subst.apply_term sub cmp.Query.right)
    with
    | Some v1, Some v2 -> Query.eval_comparison_op cmp.Query.op v1 v2
    | _ -> false
  in
  List.filter
    (fun sub -> List.for_all (satisfies sub) q.Query.comparisons)
    (assignments Codb_cq.Subst.empty q.Query.body)

let reference_answers db (q : Query.t) =
  let project acc sub =
    match Codb_cq.Subst.apply_atom sub q.Query.head with
    | Some t -> Relation.Tuple_set.add t acc
    | None -> acc
  in
  Relation.Tuple_set.elements
    (List.fold_left project Relation.Tuple_set.empty (reference_substs db q))

let test_against_reference () =
  let db = sample_db () in
  let queries =
    [
      "ans(x, y) <- r(x, y)";
      "ans(x, c) <- r(x, b), s(b, c)";
      "ans(x) <- r(x, b), b > 5, b < 15";
      "ans(x, z) <- r(x, y), r(z, y), x != z";
      "ans(c) <- s(b, c), r(1, b)";
    ]
  in
  List.iter
    (fun text ->
      let q = parse_query text in
      let source = Eval.of_database db in
      check_tuples text (reference_answers db q) (answer_tuples source q))
    queries

let test_indexed_equals_scan () =
  (* the probing access path must answer exactly like the scan-only
     one on every query shape *)
  let db = sample_db () in
  let indexed = Eval.of_database db in
  let scan =
    Eval.source_of_alist
      [ ("r", packed (Database.tuples db "r")); ("s", packed (Database.tuples db "s")) ]
  in
  List.iter
    (fun text ->
      let q = parse_query text in
      check_tuples text (answer_tuples scan q) (answer_tuples indexed q))
    [
      "ans(x, y) <- r(x, y)";
      "ans(x, c) <- r(x, b), s(b, c)";
      "ans(y) <- r(1, y)";
      "ans(x, z) <- r(x, y), r(z, y)";
      "ans(c) <- s(b, c), r(1, b), b > 5";
    ]

let test_probe_with_wrong_arity_atom () =
  (* an atom of the wrong arity matches nothing and must not make the
     index raise *)
  let db = sample_db () in
  let q = parse_query "ans(x) <- r(1, x, x)" in
  check_tuples "no match" [] (answer_tuples (Eval.of_database db) q)

let test_delta_basic () =
  (* delta evaluation only derives answers involving the delta *)
  let db = sample_db () in
  let delta = [ tup [ i 9; i 20 ] ] in
  let since = Relation.cardinal (Database.relation db "r") in
  ignore (Database.insert_all db "r" delta);
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let tuples = boxed (one_shot (Eval.of_database db) ~delta_rel:"r" ~since q) in
  check_tuples "only delta-derived" [ tup [ i 9; s "y" ] ] tuples

let test_delta_no_mention () =
  let db = sample_db () in
  let q = parse_query "ans(b, c) <- s(b, c)" in
  let heads = one_shot (Eval.of_database db) ~delta_rel:"r" ~since:0 q in
  Alcotest.(check int) "irrelevant delta" 0 (List.length heads)

let test_delta_self_join_complete_and_exact () =
  (* r = {(1,2)}, delta adds (2,3): the new paths are (1,3) via
     old x delta; plus any paths using only the delta.  Semi-naive
     evaluation must find exactly the answers that full re-evaluation
     gains. *)
  let edge = Schema.make "e" [ ("a", Value.Tint); ("b", Value.Tint) ] in
  let db = db_of [ edge ] [ ("e", tup [ i 1; i 2 ]) ] in
  let q = parse_query "ans(x, z) <- e(x, y), e(y, z)" in
  let before = answer_tuples (Eval.of_database db) q in
  let delta = [ tup [ i 2; i 3 ]; tup [ i 3; i 1 ] ] in
  let since = Relation.cardinal (Database.relation db "e") in
  ignore (Database.insert_all db "e" delta);
  let after = answer_tuples (Eval.of_database db) q in
  let gained =
    List.filter (fun t -> not (List.exists (Tuple.equal t) before)) after
  in
  let derived = boxed (one_shot (Eval.of_database db) ~delta_rel:"e" ~since q) in
  check_tuples "delta derives exactly the gain" gained derived

let test_delta_naive_mode_matches_full () =
  let db = sample_db () in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let tuples = boxed (one_shot ~naive:true (Eval.of_database db) ~delta_rel:"r" ~since:0 q) in
  check_tuples "naive = full re-evaluation"
    (answer_tuples (Eval.of_database db) q)
    tuples

let test_certain_filters_nulls () =
  let null = Value.fresh_null ~rule:"t" in
  let tuples = [ tup [ i 1; i 2 ]; tup [ i 1; null ] ] in
  check_tuples "null-free" [ tup [ i 1; i 2 ] ] (Eval.certain tuples)

let test_answer_tuples_rejects_existential_head () =
  let db = sample_db () in
  let q =
    Query.make ~head:(atom "ans" [ v "x"; v "fresh" ]) ~body:[ atom "r" [ v "x"; v "y" ] ] ()
  in
  Alcotest.(check bool)
    "raises" true
    (try
       ignore (answer_tuples (Eval.of_database db) q);
       false
     with Invalid_argument _ -> true)

let test_zone_maps_answers_unchanged () =
  (* big enough for several 4096-row chunks, selective enough to prune *)
  let db = db_of [ r_schema ] [] in
  let rel = Codb_relalg.Database.relation db "r" in
  for k = 0 to 9999 do
    ignore (Codb_relalg.Relation.insert rel (tup [ i k; i (k mod 50) ]))
  done;
  let q = parse_query "ans(x, y) <- r(x, y), x < 120, y > 10" in
  let source = Eval.of_database db in
  Eval.reset_counters ();
  let answers = answer_tuples source q in
  check_tuples "the pruned scan answers like a full one"
    (reference_answers db q) answers;
  let c = Eval.counters () in
  Alcotest.(check bool) "chunks were pruned" true (c.Eval.zone_pruned > 0);
  Alcotest.(check bool) "surviving chunks were visited" true (c.Eval.zone_visited > 0)

(* A row list mixing widths: each atom sees only the rows of its own
   width — never a longer row's prefix, never an out-of-range cell. *)
let test_mixed_widths () =
  let source = Eval.source_of_alist [ ("r", packed [ tup [ i 1 ]; tup [ i 2; i 3 ] ]) ] in
  check_tuples "unary atom: only the 1-tuple" [ tup [ i 1 ] ]
    (answer_tuples source (parse_query "ans(x) <- r(x)"));
  check_tuples "binary atom: only the 2-tuple" [ tup [ i 2; i 3 ] ]
    (answer_tuples source (parse_query "ans(x, y) <- r(x, y)"))

(* Semi-naive evaluation costs the delta, not the relation: a
   single-atom rule never reads the pre-delta relation, so preparing
   it and running it on a 5-row delta allocates alike over 2 000 and
   20 000 stored rows. *)
let test_delta_allocation_independent_of_relation () =
  let q = parse_query "ans(x, y) <- r(x, y), x >= 0" in
  let words rows =
    let db = db_of [ r_schema ] [] in
    ignore (Database.insert_all db "r" (List.init rows (fun k -> tup [ i k; i (k mod 7) ])));
    let since = Relation.cardinal (Database.relation db "r") in
    ignore (Database.insert_all db "r" (List.init 5 (fun k -> tup [ i (rows + k); i 0 ])));
    let source = Eval.of_database db in
    let run () = one_shot source ~delta_rel:"r" ~since q in
    Alcotest.(check int) "one head per delta row" 5 (List.length (run ()));
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. before
  in
  let small = words 2_000 and large = words 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "allocation within 2x (%.0f words at 2k rows, %.0f at 20k)" small large)
    true
    (large <= 2. *. small && small <= 2. *. large)

(* The delta is the stored rows from [since] on: the heads the full
   join gained through them, self-joins included, and nothing past an
   empty suffix. *)
let test_delta_named_by_watermark () =
  let edge = Schema.make "e" [ ("a", Value.Tint); ("b", Value.Tint) ] in
  let db = db_of [ edge ] [ ("e", tup [ i 1; i 2 ]); ("e", tup [ i 5; i 6 ]) ] in
  let q = parse_query "ans(x, y, z) <- e(x, y), e(y, z)" in
  let before = reference_answers db q in
  let since = Relation.cardinal (Database.relation db "e") in
  ignore (Database.insert_all db "e" [ tup [ i 2; i 3 ]; tup [ i 3; i 1 ] ]);
  let source = Eval.of_database db in
  check_tuples "the heads the full join gained"
    (List.filter (fun t -> not (List.exists (Tuple.equal t) before)) (reference_answers db q))
    (boxed (one_shot source ~delta_rel:"e" ~since q));
  Alcotest.(check int) "an empty suffix derives nothing" 0
    (List.length (one_shot source ~delta_rel:"e" ~since:4 q))

(* A prepared rule planned and compiled its join at the first run: a
   later run over an empty window pays only for the candidate set it
   finds empty, not for a plan (preparing and
   running a rule once spends ~650 words on planning and compiling
   first).  Minor words are exact on OCaml 5 native code only, as in
   [test_relation]. *)
let test_stream_run_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let db =
      db_of [ r_schema; Schema.make "s" [ ("b", Value.Tint); ("c", Value.Tint) ] ]
        (List.init 100 (fun k -> ("s", tup [ i k; i (k + 1) ]))
        @ List.init 100 (fun k -> ("r", tup [ i k; i k ])))
    in
    let into = Row.Table.create 64 in
    let prepared =
      Eval.prepare ~into (Eval.of_database db) (parse_query "h(x, c) <- r(x, b), s(b, c)")
    in
    check_tuples "the first run derives the window's head" [ tup [ i 99; i 100 ] ]
      (boxed (Eval.run ~delta_rel:"r" ~since:99 prepared));
    let runs = 100 in
    let before = Gc.minor_words () in
    for _ = 1 to runs do
      ignore (Sys.opaque_identity (Eval.run ~delta_rel:"r" ~since:100 prepared))
    done;
    let per_run = (Gc.minor_words () -. before) /. float_of_int runs in
    Alcotest.(check bool)
      (Printf.sprintf "empty-window run: %.1f minor words (bound 64)" per_run)
      true (per_run <= 64.)
  end

(* A stream is planned once, at its rule's first run over its delta
   relation, whatever that window holds: the planner sees the window as
   one row, so the join is driven from it and probes the rest, and a
   first window of every row still plans for the one-row windows that
   follow.  Growing a body relation plans nothing; only a changed rule
   ([~query]) plans again, into the same table. *)
let test_stream_planned_once () =
  let s_schema = Schema.make "s" [ ("b", Value.Tint); ("c", Value.Tint) ] in
  let db =
    db_of [ r_schema; s_schema ]
      (List.concat_map
         (fun k -> [ ("r", tup [ i k; i k ]); ("s", tup [ i k; i (k + 1) ]) ])
         (List.init 10 Fun.id))
  in
  let prepared =
    Eval.prepare ~into:(Row.Table.create 8) (Eval.of_database db)
      (parse_query "h(x, c) <- r(x, b), s(b, c)")
  in
  let work f =
    let c0 = Eval.counters () in
    let rows = f () in
    let c1 = Eval.counters () in
    ( boxed rows,
      (c1.Eval.planned - c0.Eval.planned, c1.Eval.scans - c0.Eval.scans, c1.Eval.probes - c0.Eval.probes) )
  in
  let run_after ?query x b =
    let since = Relation.cardinal (Database.relation db "r") in
    ignore (Database.insert db "r" (tup [ i x; i b ]));
    work (fun () -> Eval.run ?query ~delta_rel:"r" ~since prepared)
  in
  let check what (want_rows, want_work) (rows, got) =
    check_tuples what want_rows rows;
    Alcotest.(check (triple int int int)) (what ^ ": planned, scans, probes") want_work got
  in
  check "a first window of every row"
    (List.init 10 (fun k -> tup [ i k; i (k + 1) ]), (1, 1, 10))
    (work (fun () -> Eval.run ~delta_rel:"r" ~since:0 prepared));
  check "a one-row window" ([ tup [ i 100; i 6 ] ], (0, 1, 1)) (run_after 100 5);
  List.iter
    (fun k -> ignore (Database.insert db "s" (tup [ i k; i (k + 1) ])))
    (List.init 30 (fun k -> 10 + k));
  check "after s tripled" ([ tup [ i 101; i 21 ] ], (0, 1, 1)) (run_after 101 20);
  check "the same rule, parsed again"
    ([ tup [ i 102; i 31 ] ], (0, 1, 1))
    (run_after ~query:(parse_query "h(x, c) <- r(x, b), s(b, c)") 102 30);
  let changed = parse_query "h(x, c) <- r(x, b), s(c, b)" in
  check "a changed rule" ([ tup [ i 103; i 6 ] ], (1, 1, 1)) (run_after ~query:changed 103 7)

(* The head order.  A run's heads are the distinct rows of its
   matches that earlier runs did not return, in [Row.compare] order:
   the reference is [Eval.answers] projected onto the head, packed and
   sorted with [List.sort_uniq], minus what earlier windows produced.
   [m] mixes an int and a string column, so the packed order is not
   the interning order. *)
let m_schema = Schema.make "m" [ ("a", Value.Tint); ("b", Value.Tstring) ]

let order_queries =
  [|
    "ans(x, y) <- m(x, y)";
    "ans(y, x) <- m(x, y)";
    "ans(y) <- m(x, y)";
    "ans(x, y) <- m(x, y), x >= 0";
    "ans(x, z) <- m(x, y), m(z, y), x < z";
  |]

let reference_heads source q =
  List.sort_uniq Row.compare
    (List.filter_map
       (fun sub -> Option.map Row.of_tuple (Codb_cq.Subst.apply_atom sub q.Query.head))
       (Eval.answers source q))

let rows_testable = Alcotest.testable (Fmt.Dump.list (Fmt.Dump.array Fmt.int)) ( = )

(* Insert [tuples] in batches cut at [cuts] (positions in the list),
   running the prepared rule over each batch's window, and check every
   run, an empty window after it, and the one-shot [heads] at the
   end. *)
let check_head_order ~query tuples cuts =
  let q = parse_query order_queries.(query) in
  let db = db_of [ m_schema ] [] in
  let relation = Database.relation db "m" in
  let source = Eval.of_database db in
  let prepared = Eval.prepare ~into:(Row.Table.create 8) source q in
  let returned = Row.Table.create 64 and derived = Row.Table.create 64 in
  let batches =
    let rec split from = function
      | [] -> [ List.filteri (fun k _ -> k >= from) tuples ]
      | cut :: rest ->
          List.filteri (fun k _ -> k >= from && k < cut) tuples :: split cut rest
    in
    split 0 (List.sort_uniq Int.compare cuts)
  in
  List.iteri
    (fun b batch ->
      let since = Relation.cardinal relation in
      ignore (Database.insert_all db "m" batch);
      let upto = Relation.cardinal relation in
      let gained = List.filter (fun row -> not (Row.Table.mem derived row)) (reference_heads source q) in
      List.iter (fun row -> Row.Table.replace derived row ()) gained;
      let got = Eval.run ~delta_rel:"m" ~since ~upto prepared in
      let what = Printf.sprintf "%s, window %d [%d, %d)" order_queries.(query) b since upto in
      Alcotest.check rows_testable what gained got;
      List.iter
        (fun row ->
          if Row.Table.mem returned row then Alcotest.failf "%s: a row came out twice" what;
          Row.Table.add returned row ())
        got;
      Alcotest.check rows_testable (what ^ ", again") []
        (Eval.run ~delta_rel:"m" ~since:upto ~upto prepared))
    batches;
  Alcotest.check rows_testable
    (order_queries.(query) ^ ": heads")
    (reference_heads source q) (Eval.heads source q)

let order_strings = Array.init 997 (fun k -> Printf.sprintf "s%d" ((k * 7919) mod 10_007))

let gen_head_order =
  let open QCheck2.Gen in
  let* query = int_bound (Array.length order_queries - 1) in
  let* n =
    frequency
      [ (1, pure 0); (1, pure 1); (1, pure 2); (3, int_range 3 300); (2, int_range 1025 3000) ]
  in
  let* tuples =
    list_repeat n
      (map2
         (fun a b -> tup [ i a; s order_strings.(b) ])
         (int_range (-400) 400)
         (int_bound (Array.length order_strings - 1)))
  in
  let* cuts = list_size (int_bound 4) (int_bound (max 1 n)) in
  return (query, tuples, cuts)

let prop_head_order =
  QCheck2.Test.make ~name:"runs return distinct new heads in Row.compare order" ~count:30
    gen_head_order (fun (query, tuples, cuts) ->
      check_head_order ~query tuples cuts;
      true)

(* Every merge width, deterministically: sizes around the powers of
   two, one window and three. *)
let test_head_order_sizes () =
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let tuples =
        List.init n (fun _ ->
            tup
              [
                i (Random.State.int rng 801 - 400);
                s order_strings.(Random.State.int rng (Array.length order_strings));
              ])
      in
      check_head_order ~query:0 tuples [];
      check_head_order ~query:1 tuples [ n / 3; (2 * n) / 3 ])
    [ 0; 1; 2; 3; 7; 8; 9; 15; 16; 17; 63; 65; 1023; 1024; 1025; 2049; 3001 ]

(* A prepared copy rule's second window allocates per head only the
   head itself: its row, its entry in the table and its cons in the
   output, about 10 minor words, however many heads.  The buffer the
   heads are sorted in is the rule's, warm from the first window.
   Minor words are exact on OCaml 5 native code only. *)
let test_head_allocation () =
  if Sys.backend_type = Sys.Native then
    List.iter
      (fun n ->
        let db = db_of [ r_schema ] [] in
        let rows k = List.init n (fun j -> tup [ i (((k * n) + j) * 7919 mod 100_003); i j ]) in
        ignore (Database.insert_all db "r" (rows 0));
        let prepared =
          Eval.prepare ~into:(Row.Table.create 64) (Eval.of_database db)
            (parse_query "out(x, y) <- r(x, y)")
        in
        ignore (Eval.run ~delta_rel:"r" ~since:0 prepared);
        ignore (Database.insert_all db "r" (rows 1));
        let before = Gc.minor_words () in
        let heads = Eval.run ~delta_rel:"r" ~since:n prepared in
        let per_head = (Gc.minor_words () -. before) /. float_of_int n in
        Alcotest.(check int) "one head per new row" n (List.length heads);
        Alcotest.(check bool)
          (Printf.sprintf "%d heads: %.1f minor words per head (bound 16)" n per_head)
          true (per_head <= 16.))
      [ 1_000; 20_000 ]

let suite =
  [
    Alcotest.test_case "single atom scan" `Quick test_single_atom_scan;
    Alcotest.test_case "binary join" `Quick test_join;
    Alcotest.test_case "constants select" `Quick test_constant_selection;
    Alcotest.test_case "repeated variables" `Quick test_repeated_variable;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "variable-variable comparison" `Quick
      test_variable_to_variable_comparison;
    Alcotest.test_case "self join" `Quick test_self_join;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "unknown relation yields nothing" `Quick
      test_unknown_relation_is_empty;
    Alcotest.test_case "nulls join by identity" `Quick test_nulls_join_by_identity;
    Alcotest.test_case "agrees with reference evaluator" `Quick test_against_reference;
    Alcotest.test_case "indexed = scan-only access path" `Quick test_indexed_equals_scan;
    Alcotest.test_case "wrong-arity atoms do not break probing" `Quick
      test_probe_with_wrong_arity_atom;
    Alcotest.test_case "delta: basic" `Quick test_delta_basic;
    Alcotest.test_case "delta: irrelevant relation" `Quick test_delta_no_mention;
    Alcotest.test_case "delta: self-join exactness" `Quick
      test_delta_self_join_complete_and_exact;
    Alcotest.test_case "delta: naive mode" `Quick test_delta_naive_mode_matches_full;
    Alcotest.test_case "delta: allocation independent of |R|" `Quick
      test_delta_allocation_independent_of_relation;
    Alcotest.test_case "certain answers" `Quick test_certain_filters_nulls;
    Alcotest.test_case "user query rejects existential head" `Quick
      test_answer_tuples_rejects_existential_head;
    Alcotest.test_case "zone maps leave answers unchanged" `Quick
      test_zone_maps_answers_unchanged;
    Alcotest.test_case "mixed widths: each atom sees its own rows" `Quick
      test_mixed_widths;
    Alcotest.test_case "a stream run allocates no plan" `Quick test_stream_run_allocation;
    Alcotest.test_case "a stream is planned once, whatever its first window" `Quick
      test_stream_planned_once;
    Alcotest.test_case "a delta named by its watermark" `Quick
      test_delta_named_by_watermark;
    Alcotest.test_case "head order at every merge width" `Quick test_head_order_sizes;
    QCheck_alcotest.to_alcotest prop_head_order;
    Alcotest.test_case "a warm run allocates only its heads" `Quick test_head_allocation;
  ]
