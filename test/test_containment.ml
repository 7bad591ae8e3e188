open Helpers
module Containment = Codb_cq.Containment

let q text = parse_query text

let test_identical () =
  let q1 = q "ans(x, y) <- r(x, y)" in
  Alcotest.(check bool) "self containment" true (Containment.contained q1 q1);
  Alcotest.(check bool) "self equivalence" true (Containment.equivalent q1 q1)

let test_more_joins_is_contained () =
  (* q1 with an extra join condition is contained in the looser q2 *)
  let q1 = q "ans(x) <- r(x, y), s(y, z)" in
  let q2 = q "ans(x) <- r(x, y)" in
  Alcotest.(check bool) "q1 in q2" true (Containment.contained q1 q2);
  Alcotest.(check bool) "q2 not in q1" false (Containment.contained q2 q1)

let test_renamed_variables_equivalent () =
  let q1 = q "ans(x, y) <- r(x, y)" in
  let q2 = q "ans(a, b) <- r(a, b)" in
  Alcotest.(check bool) "alpha-equivalent" true (Containment.equivalent q1 q2)

let test_redundant_atom_equivalent () =
  (* a duplicated atom does not change the answers *)
  let q1 = q "ans(x) <- r(x, y), r(x, y)" in
  let q2 = q "ans(x) <- r(x, y)" in
  Alcotest.(check bool) "equivalent" true (Containment.equivalent q1 q2)

let test_constant_specialisation () =
  let q1 = q "ans(y) <- r(1, y)" in
  let q2 = q "ans(y) <- r(x, y)" in
  Alcotest.(check bool) "specialised in general" true (Containment.contained q1 q2);
  Alcotest.(check bool) "general not in specialised" false (Containment.contained q2 q1)

let test_different_head_projection () =
  let q1 = q "ans(x) <- r(x, y)" in
  let q2 = q "ans(y) <- r(x, y)" in
  Alcotest.(check bool) "not contained" false (Containment.contained q1 q2)

let test_different_relations () =
  let q1 = q "ans(x) <- r(x, y)" in
  let q2 = q "ans(x) <- s(x, y)" in
  Alcotest.(check bool) "disjoint relations" false (Containment.contained q1 q2)

let test_comparisons_conservative () =
  (* same comparison on both sides: still detected as contained *)
  let q1 = q "ans(x) <- r(x, y), y > 5" in
  Alcotest.(check bool) "self with comparison" true (Containment.contained q1 q1);
  (* looser side has the comparison: containment must NOT be claimed *)
  let loose = q "ans(x) <- r(x, y)" in
  let strict = q "ans(x) <- r(x, y), y > 5" in
  Alcotest.(check bool) "loose not in strict" false (Containment.contained loose strict);
  Alcotest.(check bool) "strict in loose" true (Containment.contained strict loose)

let test_with_comparisons () =
  (* adding a comparison only restricts: q1 ⊆ q2 *)
  Alcotest.(check bool) "restriction contained" true
    (Containment.contained (q "ans(x) <- r(x, y), x > 2") (q "ans(x) <- r(x, y)"));
  Alcotest.(check bool) "not the other way" false
    (Containment.contained (q "ans(x) <- r(x, y)") (q "ans(x) <- r(x, y), x > 2"));
  (* syntactically identical comparisons are entailed *)
  Alcotest.(check bool) "same comparison both ways" true
    (Containment.equivalent
       (q "ans(x) <- r(x, y), x > 2")
       (q "ans(a) <- r(a, b), a > 2"));
  (* ground comparisons are evaluated *)
  Alcotest.(check bool) "true ground comparison entailed" true
    (Containment.contained (q "ans(x) <- r(x, y)") (q "ans(x) <- r(x, y), 3 > 2"));
  (* the conservative path: x > 3 semantically implies x > 2, but the
     syntactic test cannot see it — contained must answer false (sound,
     incomplete) rather than true *)
  Alcotest.(check bool) "semantic implication not detected" false
    (Containment.contained
       (q "ans(x) <- r(x, y), x > 3")
       (q "ans(x) <- r(x, y), x > 2"))

let test_ground_comparison_entailment () =
  (* the contained side carries a comparison over constants which
     evaluates to true *)
  let q1 = q "ans(x) <- r(x, y)" in
  let q2 = q "ans(x) <- r(x, y), 1 < 2" in
  Alcotest.(check bool) "ground true comparison" true (Containment.contained q1 q2)

let test_mixed_arity_atoms () =
  (* the canonical database of q1 holds r-rows of two widths; an atom
     may only map onto rows of its own width *)
  let q1 = q "ans(x) <- r(x, y), r(x)" in
  let q2 = q "ans(x) <- r(x, y)" in
  Alcotest.(check bool) "q1 in q2" true (Containment.contained q1 q2);
  Alcotest.(check bool) "q2 not in q1" false (Containment.contained q2 q1)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identical;
    Alcotest.test_case "extra join is more specific" `Quick test_more_joins_is_contained;
    Alcotest.test_case "alpha equivalence" `Quick test_renamed_variables_equivalent;
    Alcotest.test_case "redundant atom" `Quick test_redundant_atom_equivalent;
    Alcotest.test_case "constant specialisation" `Quick test_constant_specialisation;
    Alcotest.test_case "head projection matters" `Quick test_different_head_projection;
    Alcotest.test_case "different relations" `Quick test_different_relations;
    Alcotest.test_case "comparisons handled conservatively" `Quick
      test_comparisons_conservative;
    Alcotest.test_case "with comparisons" `Quick test_with_comparisons;
    Alcotest.test_case "ground comparison entailment" `Quick
      test_ground_comparison_entailment;
    Alcotest.test_case "mixed-arity atoms" `Quick test_mixed_arity_atoms;
  ]
