(* The cost-based join planner: step ordering on crafted selectivity
   cases, composite-probe selection, comparison pushdown, and
   planned-vs-reference equivalence on fixed databases. *)

open Helpers
module Plan = Codb_cq.Plan
module Subst = Codb_cq.Subst

let contains ~sub text =
  let n = String.length sub and m = String.length text in
  let rec go k = k + n <= m && (String.sub text k n = sub || go (k + 1)) in
  go 0

let big_schema = Schema.make "big" [ ("a", Value.Tint); ("b", Value.Tint) ]

let small_schema = Schema.make "small" [ ("b", Value.Tint); ("c", Value.Tint) ]

(* [big] has 20 tuples fanning out of few keys, [small] has 2. *)
let crafted_db () =
  let db = Database.create [ big_schema; small_schema ] in
  List.iter
    (fun n -> ignore (Database.insert db "big" (tup [ i (n mod 4); i n ])))
    (List.init 20 (fun n -> n));
  ignore (Database.insert db "small" (tup [ i 1; i 100 ]));
  ignore (Database.insert db "small" (tup [ i 2; i 200 ]));
  db

let plan_for ?max_probe_cols db q =
  Eval.plan_for ?max_probe_cols (Eval.of_database db) q

let order (plan : Plan.t) = Plan.order plan

let probes (plan : Plan.t) = List.map (fun s -> s.Plan.st_probe) plan.Plan.pl_steps

let test_small_relation_first () =
  let db = crafted_db () in
  let q = parse_query "ans(a, c) <- big(a, b), small(b, c)" in
  let plan = plan_for db q in
  Alcotest.(check (list int)) "small scanned first, big probed" [ 1; 0 ] (order plan);
  Alcotest.(check (list (list int))) "probe on big's bound column" [ []; [ 1 ] ]
    (probes plan)

let test_composite_probe_chosen () =
  let db = crafted_db () in
  (* the closing atom arrives with both columns bound *)
  let q = parse_query "ans(a, c) <- big(a, b), small(b, c), big(a, c)" in
  let plan = plan_for db q in
  let closing =
    List.find (fun s -> s.Plan.st_pos = 2) plan.Plan.pl_steps
  in
  Alcotest.(check (list int)) "composite probe on both columns" [ 0; 1 ]
    closing.Plan.st_probe

let test_max_probe_cols_caps_probe () =
  let db = crafted_db () in
  let q = parse_query "ans(a, c) <- big(a, b), small(b, c), big(a, c)" in
  let plan = plan_for ~max_probe_cols:1 db q in
  let closing = List.find (fun s -> s.Plan.st_pos = 2) plan.Plan.pl_steps in
  Alcotest.(check (list int)) "capped to a single column" [ 0 ]
    closing.Plan.st_probe

let test_constant_makes_atom_selective () =
  let db = crafted_db () in
  (* big's second column is unique, so big(a, 7) estimates to a single
     tuple (20 / 20 distinct) — cheaper than scanning small (2), which
     would win without the constant *)
  let q = parse_query "ans(a, c) <- big(a, 7), small(a, c)" in
  let plan = plan_for db q in
  (match order plan with
  | first :: _ ->
      Alcotest.(check int) "constant-bearing atom first" 0 first
  | [] -> Alcotest.fail "empty plan");
  match probes plan with
  | first_probe :: _ ->
      Alcotest.(check (list int)) "probed on the constant column" [ 1 ] first_probe
  | [] -> Alcotest.fail "empty plan"

let test_comparison_pushdown () =
  let db = crafted_db () in
  let q = parse_query "ans(a, c) <- big(a, b), small(b, c), a < 2" in
  let plan = plan_for db q in
  (* [a < 2] must be attached to the step that binds [a] — the big
     atom — not delayed to the end *)
  let step_with_cmp =
    List.find_opt (fun s -> s.Plan.st_comparisons <> []) plan.Plan.pl_steps
  in
  match step_with_cmp with
  | Some s -> Alcotest.(check int) "evaluated at the binding step" 0 s.Plan.st_pos
  | None -> Alcotest.fail "comparison not assigned to any step"

let test_ground_comparison_precheck () =
  let db = crafted_db () in
  let q =
    Query.make
      ~head:(atom "ans" [ v "a" ])
      ~body:[ atom "big" [ v "a"; v "b" ] ]
      ~comparisons:[ { Query.left = c (i 1); op = Query.Lt; right = c (i 0) } ]
      ()
  in
  let plan = plan_for db q in
  Alcotest.(check int) "constant-only comparison lifted out" 1
    (List.length plan.Plan.pl_pre);
  Alcotest.(check (list Alcotest.reject)) "no step carries it" []
    (List.concat_map (fun s -> s.Plan.st_comparisons) plan.Plan.pl_steps);
  (* and it kills evaluation up front *)
  let source = Eval.of_database db in
  Alcotest.(check int) "planned: no answers" 0 (List.length (Eval.answers source q))

let test_unbound_comparison_yields_nothing () =
  let db = crafted_db () in
  (* unsafe query: [z] occurs only in the comparison, so no
     substitution ever satisfies it; the planner proves it up front. *)
  let q =
    Query.make
      ~head:(atom "ans" [ v "a" ])
      ~body:[ atom "big" [ v "a"; v "b" ] ]
      ~comparisons:[ { Query.left = v "z"; op = Query.Eq; right = c (i 1) } ]
      ()
  in
  let plan = plan_for db q in
  Alcotest.(check int) "recognised as never bindable" 1
    (List.length plan.Plan.pl_unbound);
  let source = Eval.of_database db in
  Alcotest.(check int) "planned: no answers" 0 (List.length (Eval.answers source q))

let test_wrong_arity_atom_matches_nothing () =
  let db = crafted_db () in
  let q =
    Query.make
      ~head:(atom "ans" [ v "a" ])
      ~body:[ atom "big" [ v "a" ] ]  (* big is binary *)
      ()
  in
  let source = Eval.of_database db in
  Alcotest.(check int) "planned" 0 (List.length (Eval.answers source q))

let subst_set substs =
  List.sort_uniq compare (List.map Subst.bindings substs)

let check_equivalent db text =
  let q = parse_query text in
  let source = Eval.of_database db in
  let planned = Eval.answers source q in
  let reference = Test_eval.reference_substs db q in
  let single = Eval.answers ~max_probe_cols:1 source q in
  Alcotest.(check int)
    (text ^ ": planned = reference count")
    (List.length reference) (List.length planned);
  Alcotest.(check bool) (text ^ ": same substitutions") true
    (subst_set planned = subst_set reference);
  Alcotest.(check bool) (text ^ ": single-column agrees") true
    (subst_set single = subst_set reference)

let test_planned_equals_reference_crafted () =
  let db = crafted_db () in
  List.iter (check_equivalent db)
    [
      "ans(a, b) <- big(a, b)";
      "ans(a, c) <- big(a, b), small(b, c)";
      "ans(a, c) <- big(a, b), small(b, c), big(a, c)";
      "ans(a, z) <- big(a, b), big(b, z)";
      "ans(a, b) <- big(a, b), a = b";
      "ans(a, c) <- big(1, b), small(b, c), c > 100";
      "ans(a, c) <- big(a, b), small(b, c), a < b, b <= c";
      "ans(a, b) <- big(a, b), big(a, b)";
    ]

let test_planned_equals_reference_empty_relation () =
  let db = Database.create [ big_schema; small_schema ] in
  ignore (Database.insert db "big" (tup [ i 1; i 2 ]));
  (* small stays empty *)
  List.iter (check_equivalent db)
    [ "ans(a, c) <- big(a, b), small(b, c)"; "ans(b, c) <- small(b, c)" ]

let test_delta_planned_equals_reference () =
  let db = crafted_db () in
  let q = parse_query "ans(a, z) <- big(a, b), big(b, z)" in
  let source = Eval.of_database db in
  let before = subst_set (Test_eval.reference_substs db q) in
  let delta = [ tup [ i 0; i 100 ]; tup [ i 3; i 300 ] ] in
  let since = Relation.cardinal (Database.relation db "big") in
  ignore (Database.insert_all db "big" delta);
  let gained =
    List.filter
      (fun s -> not (List.mem s before))
      (subst_set (Test_eval.reference_substs db q))
  in
  let planned = Eval.delta_answers source ~delta_rel:"big" ~since ~delta q in
  Alcotest.(check bool) "delta substitutions = reference gain" true
    (subst_set planned = gained)

let test_explain_mentions_probe () =
  let db = crafted_db () in
  let q = parse_query "ans(a, c) <- big(a, b), small(b, c), big(a, c)" in
  let text = Plan.explain q (plan_for db q) in
  Alcotest.(check bool) "mentions a composite probe" true
    (contains ~sub:"probe [0,1]" text)

let suite =
  [
    Alcotest.test_case "small relation ordered first" `Quick test_small_relation_first;
    Alcotest.test_case "composite probe chosen" `Quick test_composite_probe_chosen;
    Alcotest.test_case "max_probe_cols caps the probe" `Quick
      test_max_probe_cols_caps_probe;
    Alcotest.test_case "constants make atoms selective" `Quick
      test_constant_makes_atom_selective;
    Alcotest.test_case "comparison pushdown" `Quick test_comparison_pushdown;
    Alcotest.test_case "ground comparisons pre-checked" `Quick
      test_ground_comparison_precheck;
    Alcotest.test_case "unbound comparison yields nothing" `Quick
      test_unbound_comparison_yields_nothing;
    Alcotest.test_case "wrong-arity atom matches nothing" `Quick
      test_wrong_arity_atom_matches_nothing;
    Alcotest.test_case "planned = reference on crafted cases" `Quick
      test_planned_equals_reference_crafted;
    Alcotest.test_case "planned = reference with empty relations" `Quick
      test_planned_equals_reference_empty_relation;
    Alcotest.test_case "planned = reference on deltas" `Quick
      test_delta_planned_equals_reference;
    Alcotest.test_case "explain mentions the probe" `Quick test_explain_mentions_probe;
  ]
