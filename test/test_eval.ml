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
  let answers = Eval.answer_tuples (Eval.of_database db) q in
  check_tuples "all of r"
    [ tup [ i 1; i 10 ]; tup [ i 2; i 20 ]; tup [ i 3; i 10 ] ]
    answers

let test_join () =
  let db = sample_db () in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let answers = Eval.answer_tuples (Eval.of_database db) q in
  check_tuples "join"
    [ tup [ i 1; s "x" ]; tup [ i 2; s "y" ]; tup [ i 3; s "x" ] ]
    answers

let test_constant_selection () =
  let db = sample_db () in
  let q = parse_query "ans(y) <- r(1, y)" in
  check_tuples "constant in atom" [ tup [ i 10 ] ]
    (Eval.answer_tuples (Eval.of_database db) q)

let test_repeated_variable () =
  let db =
    db_of [ r_schema ] [ ("r", tup [ i 1; i 1 ]); ("r", tup [ i 1; i 2 ]) ]
  in
  let q = parse_query "ans(x) <- r(x, x)" in
  check_tuples "diagonal" [ tup [ i 1 ] ] (Eval.answer_tuples (Eval.of_database db) q)

let test_comparisons () =
  let db = sample_db () in
  let q = parse_query "ans(x, b) <- r(x, b), b >= 20" in
  check_tuples "b >= 20" [ tup [ i 2; i 20 ] ]
    (Eval.answer_tuples (Eval.of_database db) q);
  let q2 = parse_query "ans(x) <- r(x, b), x != 3, b = 10" in
  check_tuples "x != 3, b = 10" [ tup [ i 1 ] ]
    (Eval.answer_tuples (Eval.of_database db) q2)

let test_variable_to_variable_comparison () =
  let db =
    db_of [ r_schema ] [ ("r", tup [ i 1; i 5 ]); ("r", tup [ i 7; i 5 ]) ]
  in
  let q = parse_query "ans(x, y) <- r(x, y), x < y" in
  check_tuples "x < y" [ tup [ i 1; i 5 ] ]
    (Eval.answer_tuples (Eval.of_database db) q)

let test_self_join () =
  (* paths of length 2 in r seen as an edge relation *)
  let db =
    db_of [ r_schema ]
      [ ("r", tup [ i 1; i 2 ]); ("r", tup [ i 2; i 3 ]); ("r", tup [ i 3; i 4 ]) ]
  in
  let q = parse_query "ans(x, z) <- r(x, y), r(y, z)" in
  check_tuples "two-step paths"
    [ tup [ i 1; i 3 ]; tup [ i 2; i 4 ] ]
    (Eval.answer_tuples (Eval.of_database db) q)

let test_empty_relation () =
  let db = db_of [ r_schema; s_schema ] [ ("r", tup [ i 1; i 10 ]) ] in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  check_tuples "empty join" [] (Eval.answer_tuples (Eval.of_database db) q)

let test_unknown_relation_is_empty () =
  let db = sample_db () in
  let q = parse_query "ans(x) <- zzz(x)" in
  check_tuples "unknown rel" [] (Eval.answer_tuples (Eval.of_database db) q)

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
    (Eval.answer_tuples (Eval.of_database db) q)

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
      check_tuples text (reference_answers db q) (Eval.answer_tuples source q))
    queries

let test_indexed_equals_scan () =
  (* the probing access path must answer exactly like the scan-only
     one on every query shape *)
  let db = sample_db () in
  let indexed = Eval.of_database db in
  let scan =
    Eval.source_of_alist [ ("r", Database.tuples db "r"); ("s", Database.tuples db "s") ]
  in
  List.iter
    (fun text ->
      let q = parse_query text in
      check_tuples text (Eval.answer_tuples scan q) (Eval.answer_tuples indexed q))
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
  check_tuples "no match" [] (Eval.answer_tuples (Eval.of_database db) q)

let test_delta_basic () =
  (* delta evaluation only derives answers involving the delta *)
  let db = sample_db () in
  let delta = [ tup [ i 9; i 20 ] ] in
  let since = Relation.cardinal (Database.relation db "r") in
  ignore (Database.insert_all db "r" delta);
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let substs = Eval.delta_answers (Eval.of_database db) ~delta_rel:"r" ~since ~delta q in
  let tuples = Codb_cq.Apply.head_tuples q substs in
  check_tuples "only delta-derived" [ tup [ i 9; s "y" ] ] tuples

let test_delta_no_mention () =
  let db = sample_db () in
  let q = parse_query "ans(b, c) <- s(b, c)" in
  let substs =
    Eval.delta_answers (Eval.of_database db) ~delta_rel:"r" ~since:0
      ~delta:[ tup [ i 1; i 10 ] ] q
  in
  Alcotest.(check int) "irrelevant delta" 0 (List.length substs)

let test_delta_self_join_complete_and_exact () =
  (* r = {(1,2)}, delta adds (2,3): the new paths are (1,3) via
     old x delta; plus any paths using only the delta.  Semi-naive
     evaluation must find exactly the answers that full re-evaluation
     gains. *)
  let edge = Schema.make "e" [ ("a", Value.Tint); ("b", Value.Tint) ] in
  let db = db_of [ edge ] [ ("e", tup [ i 1; i 2 ]) ] in
  let q = parse_query "ans(x, z) <- e(x, y), e(y, z)" in
  let before = Eval.answer_tuples (Eval.of_database db) q in
  let delta = [ tup [ i 2; i 3 ]; tup [ i 3; i 1 ] ] in
  let since = Relation.cardinal (Database.relation db "e") in
  ignore (Database.insert_all db "e" delta);
  let after = Eval.answer_tuples (Eval.of_database db) q in
  let gained =
    List.filter (fun t -> not (List.exists (Tuple.equal t) before)) after
  in
  let substs = Eval.delta_answers (Eval.of_database db) ~delta_rel:"e" ~since ~delta q in
  let derived = Codb_cq.Apply.head_tuples q substs in
  check_tuples "delta derives exactly the gain" gained derived

let test_delta_naive_mode_matches_full () =
  let db = sample_db () in
  let q = parse_query "ans(x, c) <- r(x, b), s(b, c)" in
  let substs =
    Eval.delta_answers ~naive:true (Eval.of_database db) ~delta_rel:"r" ~since:0
      ~delta:[ tup [ i 1; i 10 ] ] q
  in
  let tuples = Codb_cq.Apply.head_tuples q substs in
  check_tuples "naive = full re-evaluation"
    (Eval.answer_tuples (Eval.of_database db) q)
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
       ignore (Eval.answer_tuples (Eval.of_database db) q);
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
  let answers = Eval.answer_tuples source q in
  check_tuples "the pruned scan answers like a full one"
    (reference_answers db q) answers;
  let c = Eval.counters () in
  Alcotest.(check bool) "chunks were pruned" true (c.Eval.zone_pruned > 0);
  Alcotest.(check bool) "surviving chunks were visited" true (c.Eval.zone_visited > 0)

(* A row list mixing widths: each atom sees only the rows of its own
   width — never a longer row's prefix, never an out-of-range cell. *)
let test_mixed_widths () =
  let source = Eval.source_of_alist [ ("r", [ tup [ i 1 ]; tup [ i 2; i 3 ] ]) ] in
  check_tuples "unary atom: only the 1-tuple" [ tup [ i 1 ] ]
    (Eval.answer_tuples source (parse_query "ans(x) <- r(x)"));
  check_tuples "binary atom: only the 2-tuple" [ tup [ i 2; i 3 ] ]
    (Eval.answer_tuples source (parse_query "ans(x, y) <- r(x, y)"))

(* Semi-naive evaluation costs the delta, not the relation: a
   single-atom rule never reads the pre-delta relation, so a 5-row
   delta allocates alike over 2 000 and 20 000 stored rows. *)
let test_delta_allocation_independent_of_relation () =
  let q = parse_query "ans(x, y) <- r(x, y), x >= 0" in
  let words rows =
    let db = db_of [ r_schema ] [] in
    ignore (Database.insert_all db "r" (List.init rows (fun k -> tup [ i k; i (k mod 7) ])));
    let since = Relation.cardinal (Database.relation db "r") in
    let delta =
      Database.insert_all db "r" (List.init 5 (fun k -> tup [ i (rows + k); i 0 ]))
    in
    let source = Eval.of_database db in
    let run () = Eval.delta_answers source ~delta_rel:"r" ~since ~delta q in
    Alcotest.(check int) "one substitution per delta row" 5 (List.length (run ()));
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (run ()));
    Gc.minor_words () -. before
  in
  let small = words 2_000 and large = words 20_000 in
  Alcotest.(check bool)
    (Printf.sprintf "allocation within 2x (%.0f words at 2k rows, %.0f at 20k)" small large)
    true
    (large <= 2. *. small && small <= 2. *. large)

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
  ]
