open Helpers
module Specialize = Codb_cq.Specialize

(* shorthands *)
let col n = Specialize.Col n

let cst value = Specialize.Const value

let pred l op r = { Specialize.p_left = l; p_op = op; p_right = r }

let one_of alts = Specialize.One_of alts

let spec_testable : Specialize.t Alcotest.testable =
  Alcotest.testable Specialize.pp Specialize.equal

(* --- of_query: what a requesting query pushes onto a relation ------- *)

let test_of_query_constants () =
  let q = parse_query "ans(y) <- r(1, y)" in
  Alcotest.check spec_testable "constant binds its column"
    (one_of [ [ pred (col 0) Query.Eq (cst (i 1)) ] ])
    (Specialize.of_query q ~rel:"r")

let test_of_query_repeated_vars () =
  let q = parse_query "ans(x) <- r(x, x)" in
  Alcotest.check spec_testable "repeated variable equates its columns"
    (one_of [ [ pred (col 0) Query.Eq (col 1) ] ])
    (Specialize.of_query q ~rel:"r")

let test_of_query_comparisons () =
  let q = parse_query "ans(x, y) <- r(x, y), x < 5" in
  Alcotest.check spec_testable "comparison maps through the atom"
    (one_of [ [ pred (col 0) Query.Lt (cst (i 5)) ] ])
    (Specialize.of_query q ~rel:"r")

let test_of_query_cross_atom_comparison_unpushable () =
  (* y lives in s, not r: the comparison cannot restrict r alone *)
  let q = parse_query "ans(x) <- r(x, z), s(z, y), x < y" in
  Alcotest.check spec_testable "cross-atom comparison is dropped" Specialize.any
    (Specialize.of_query q ~rel:"r")

let test_of_query_unconstrained_is_any () =
  let q = parse_query "ans(x, y) <- r(x, y)" in
  Alcotest.check spec_testable "open atom pushes nothing" Specialize.any
    (Specialize.of_query q ~rel:"r");
  Alcotest.check spec_testable "absent relation pushes nothing" Specialize.any
    (Specialize.of_query q ~rel:"s")

let test_of_query_two_atoms_disjoin () =
  (* either occurrence of r may supply a tuple: the pushed constraint
     is the disjunction, and an unconstrained occurrence collapses the
     whole thing to Any *)
  let q = parse_query "ans(x, y) <- r(1, x), r(y, 2)" in
  (match Specialize.of_query q ~rel:"r" with
  | Specialize.One_of [ _; _ ] -> ()
  | other -> Alcotest.failf "expected two alternatives, got %s" (Specialize.to_string other));
  let q_open = parse_query "ans(x, y, z) <- r(1, x), r(y, z)" in
  Alcotest.check spec_testable "open second occurrence collapses to Any" Specialize.any
    (Specialize.of_query q_open ~rel:"r")

let test_of_query_max_preds () =
  (* one constant binding plus [n - 1] distinct comparisons: [n]
     predicates on r; the cap is 16 *)
  let query_with n =
    parse_query
      (String.concat ", "
         ("ans(y) <- r(1, y)" :: List.init (n - 1) (fun k -> Printf.sprintf "y != %d" (k + 2))))
  in
  (match Specialize.of_query (query_with 16) ~rel:"r" with
  | Specialize.One_of [ preds ] ->
      Alcotest.(check int) "16 predicates pushed" 16 (List.length preds)
  | other -> Alcotest.failf "expected one conjunct, got %s" (Specialize.to_string other));
  Alcotest.check spec_testable "17 predicates degrade to Any" Specialize.any
    (Specialize.of_query (query_with 17) ~rel:"r")

(* --- matches: requester-faithful filtering -------------------------- *)

let test_matches_semantics () =
  let c = one_of [ [ pred (col 0) Query.Eq (cst (i 1)) ] ] in
  Alcotest.(check bool) "match" true (Specialize.matches c (Row.of_tuple (tup [ i 1; i 9 ])));
  Alcotest.(check bool) "no match" false (Specialize.matches c (Row.of_tuple (tup [ i 2; i 9 ])));
  Alcotest.(check bool) "any matches" true
    (Specialize.matches Specialize.any (Row.of_tuple (tup [ i 2; i 9 ])))

let test_matches_holes_like_fresh_nulls () =
  (* a hole becomes a fresh null at the requester: Eq-to-constant is
     false, Neq is true, order comparisons are false *)
  let hole = Value.Hole 0 in
  let eq = one_of [ [ pred (col 0) Query.Eq (cst (i 1)) ] ] in
  let neq = one_of [ [ pred (col 0) Query.Neq (cst (i 1)) ] ] in
  let lt = one_of [ [ pred (col 0) Query.Lt (cst (i 1)) ] ] in
  Alcotest.(check bool) "hole = const is false" false
    (Specialize.matches eq (Row.of_tuple (tup [ hole; i 9 ])));
  Alcotest.(check bool) "hole <> const is true" true
    (Specialize.matches neq (Row.of_tuple (tup [ hole; i 9 ])));
  Alcotest.(check bool) "hole < const is false" false
    (Specialize.matches lt (Row.of_tuple (tup [ hole; i 9 ])));
  (* the same hole index co-refers within one tuple *)
  let self_eq = one_of [ [ pred (col 0) Query.Eq (col 1) ] ] in
  Alcotest.(check bool) "same hole equals itself" true
    (Specialize.matches self_eq (Row.of_tuple (tup [ hole; hole ])));
  Alcotest.(check bool) "distinct holes differ" false
    (Specialize.matches self_eq (Row.of_tuple (tup [ hole; Value.Hole 1 ])))

let test_matches_disjunction () =
  let c =
    one_of
      [
        [ pred (col 0) Query.Eq (cst (i 1)) ];
        [ pred (col 1) Query.Eq (cst (i 2)) ];
      ]
  in
  Alcotest.(check bool) "first alt" true (Specialize.matches c (Row.of_tuple (tup [ i 1; i 9 ])));
  Alcotest.(check bool) "second alt" true (Specialize.matches c (Row.of_tuple (tup [ i 9; i 2 ])));
  Alcotest.(check bool) "neither" false (Specialize.matches c (Row.of_tuple (tup [ i 9; i 9 ])))

(* --- specialize_rule: folding constraints into a rule body ---------- *)

let test_specialize_binds_constants () =
  let rule = parse_query "head(x, y) <- r(x, z), s(z, y)" in
  let c = one_of [ [ pred (col 0) Query.Eq (cst (i 7)) ] ] in
  match Specialize.specialize_rule c rule with
  | `Specialized q ->
      Alcotest.(check string)
        "x is bound everywhere" "head(7, y) <- r(7, z), s(z, y)" (Query.to_string q)
  | `Unchanged -> Alcotest.fail "expected specialization"
  | `Unsatisfiable -> Alcotest.fail "satisfiable constraint"

let test_specialize_adds_comparisons () =
  let rule = parse_query "head(x, y) <- r(x, z), s(z, y)" in
  let c = one_of [ [ pred (col 0) Query.Lt (cst (i 7)) ] ] in
  match Specialize.specialize_rule c rule with
  | `Specialized q ->
      Alcotest.(check int) "one derived comparison" 1 (List.length q.Query.comparisons)
  | `Unchanged -> Alcotest.fail "expected specialization"
  | `Unsatisfiable -> Alcotest.fail "satisfiable constraint"

let test_specialize_existential_head_decided () =
  (* z is existential: every head tuple carries a fresh null at column
     1, so an [=] there can never hold — the whole rule is refuted and
     need not run at all *)
  let rule = parse_query "head(x, z) <- r(x, y)" in
  let c = one_of [ [ pred (col 1) Query.Eq (cst (i 7)) ] ] in
  (match Specialize.specialize_rule c rule with
  | `Unsatisfiable -> ()
  | `Specialized q -> Alcotest.failf "pushed through an existential: %s" (Query.to_string q)
  | `Unchanged -> Alcotest.fail "= against a fresh null refutes the rule");
  (* order comparisons against a fresh null are unknown-false: refuted *)
  let c_lt = one_of [ [ pred (col 1) Query.Lt (cst (i 7)) ] ] in
  (match Specialize.specialize_rule c_lt rule with
  | `Unsatisfiable -> ()
  | `Specialized _ | `Unchanged -> Alcotest.fail "< against a fresh null refutes the rule");
  (* != against a fresh null is trivially true: the predicate drops,
     leaving nothing to fold *)
  let c_neq = one_of [ [ pred (col 1) Query.Neq (cst (i 7)) ] ] in
  (match Specialize.specialize_rule c_neq rule with
  | `Unchanged -> ()
  | `Specialized q -> Alcotest.failf "!= null folded something: %s" (Query.to_string q)
  | `Unsatisfiable -> Alcotest.fail "!= against a fresh null is trivially true");
  (* mixed: the pushable column folds, the trivially-true one drops *)
  let c2 =
    one_of
      [ [ pred (col 0) Query.Eq (cst (i 3)); pred (col 1) Query.Neq (cst (i 7)) ] ]
  in
  match Specialize.specialize_rule c2 rule with
  | `Specialized q ->
      Alcotest.(check string) "only x folds" "head(3, z) <- r(3, y)" (Query.to_string q)
  | `Unchanged -> Alcotest.fail "expected partial specialization"
  | `Unsatisfiable -> Alcotest.fail "satisfiable constraint"

let test_specialize_existential_pairs () =
  (* the same existential variable twice mints one null per tuple:
     col0 = col1 is trivially true, col0 != col1 refutes *)
  let rule = parse_query "head(z, z) <- r(x, y)" in
  let c_eq = one_of [ [ pred (col 0) Query.Eq (col 1) ] ] in
  (match Specialize.specialize_rule c_eq rule with
  | `Unchanged -> ()
  | `Specialized _ | `Unsatisfiable -> Alcotest.fail "same hole co-refers: = is trivial");
  let c_neq = one_of [ [ pred (col 0) Query.Neq (col 1) ] ] in
  (match Specialize.specialize_rule c_neq rule with
  | `Unsatisfiable -> ()
  | `Specialized _ | `Unchanged -> Alcotest.fail "same hole co-refers: != refutes");
  (* distinct existential variables mint distinct nulls *)
  let rule2 = parse_query "head(w, z) <- r(x, y)" in
  (match Specialize.specialize_rule c_eq rule2 with
  | `Unsatisfiable -> ()
  | `Specialized _ | `Unchanged -> Alcotest.fail "distinct holes differ: = refutes");
  match Specialize.specialize_rule c_neq rule2 with
  | `Unchanged -> ()
  | `Specialized _ | `Unsatisfiable -> Alcotest.fail "distinct holes differ: != is trivial"

let test_specialize_contradiction_unsatisfiable () =
  let rule = parse_query "head(x, y) <- r(x, y)" in
  let c =
    one_of
      [ [ pred (col 0) Query.Eq (cst (i 1)); pred (col 0) Query.Eq (cst (i 2)) ] ]
  in
  (match Specialize.specialize_rule c rule with
  | `Unsatisfiable -> ()
  | `Specialized _ | `Unchanged -> Alcotest.fail "x = 1 and x = 2 cannot both hold");
  (* a head constant refuted by the constraint *)
  let rule2 = parse_query "head(5, y) <- r(y)" in
  let c2 = one_of [ [ pred (col 0) Query.Eq (cst (i 6)) ] ] in
  match Specialize.specialize_rule c2 rule2 with
  | `Unsatisfiable -> ()
  | `Specialized _ | `Unchanged -> Alcotest.fail "head says 5, constraint says 6"

let test_specialize_repeated_head_var () =
  (* head(x, x): a constant on either column binds x *)
  let rule = parse_query "head(x, x) <- r(x, y)" in
  let c = one_of [ [ pred (col 1) Query.Eq (cst (i 4)) ] ] in
  match Specialize.specialize_rule c rule with
  | `Specialized q ->
      Alcotest.(check string) "bound via second column" "head(4, 4) <- r(4, y)"
        (Query.to_string q)
  | `Unchanged -> Alcotest.fail "expected specialization"
  | `Unsatisfiable -> Alcotest.fail "satisfiable constraint"

let test_specialize_disjunction_unchanged () =
  let rule = parse_query "head(x, y) <- r(x, y)" in
  let c =
    one_of
      [
        [ pred (col 0) Query.Eq (cst (i 1)) ];
        [ pred (col 0) Query.Eq (cst (i 2)) ];
      ]
  in
  match Specialize.specialize_rule c rule with
  | `Unchanged -> ()
  | `Specialized q -> Alcotest.failf "folded a disjunction: %s" (Query.to_string q)
  | `Unsatisfiable -> Alcotest.fail "satisfiable constraint"

let test_specialize_any_unchanged () =
  let rule = parse_query "head(x, y) <- r(x, y)" in
  match Specialize.specialize_rule Specialize.any rule with
  | `Unchanged -> ()
  | `Specialized _ | `Unsatisfiable -> Alcotest.fail "Any never specializes"

let test_normalize_and_key () =
  let p1 = pred (col 0) Query.Eq (cst (i 1)) in
  let p2 = pred (col 1) Query.Lt (cst (i 9)) in
  let key c = Specialize.to_string (Specialize.normalize c) in
  Alcotest.(check string)
    "key is order-insensitive"
    (key (one_of [ [ p1; p2 ] ]))
    (key (one_of [ [ p2; p1; p1 ] ]));
  Alcotest.check spec_testable "empty alternative collapses to Any" Specialize.any
    (Specialize.normalize (one_of [ [ p1 ]; [] ]))

let suite =
  [
    Alcotest.test_case "of_query constants" `Quick test_of_query_constants;
    Alcotest.test_case "of_query repeated vars" `Quick test_of_query_repeated_vars;
    Alcotest.test_case "of_query comparisons" `Quick test_of_query_comparisons;
    Alcotest.test_case "of_query cross-atom comparison" `Quick
      test_of_query_cross_atom_comparison_unpushable;
    Alcotest.test_case "of_query unconstrained" `Quick test_of_query_unconstrained_is_any;
    Alcotest.test_case "of_query two atoms disjoin" `Quick test_of_query_two_atoms_disjoin;
    Alcotest.test_case "of_query predicate budget" `Quick test_of_query_max_preds;
    Alcotest.test_case "matches semantics" `Quick test_matches_semantics;
    Alcotest.test_case "matches holes like fresh nulls" `Quick
      test_matches_holes_like_fresh_nulls;
    Alcotest.test_case "matches disjunction" `Quick test_matches_disjunction;
    Alcotest.test_case "specialize binds constants" `Quick test_specialize_binds_constants;
    Alcotest.test_case "specialize adds comparisons" `Quick test_specialize_adds_comparisons;
    Alcotest.test_case "specialize decides existential head" `Quick
      test_specialize_existential_head_decided;
    Alcotest.test_case "specialize existential pairs" `Quick
      test_specialize_existential_pairs;
    Alcotest.test_case "specialize contradiction" `Quick
      test_specialize_contradiction_unsatisfiable;
    Alcotest.test_case "specialize repeated head var" `Quick test_specialize_repeated_head_var;
    Alcotest.test_case "specialize disjunction unchanged" `Quick
      test_specialize_disjunction_unchanged;
    Alcotest.test_case "specialize Any unchanged" `Quick test_specialize_any_unchanged;
    Alcotest.test_case "normalize and key" `Quick test_normalize_and_key;
  ]
