open Helpers

let rule_query =
  (* h(x, z) <- r(x, y): z is existential *)
  Query.make ~head:(atom "h" [ v "x"; v "z" ]) ~body:[ atom "r" [ v "x"; v "y" ] ] ()

(* The head projector over r = [rows]. *)
let heads q rows = boxed (Eval.heads (Eval.source_of_alist [ ("r", packed rows) ]) q)

let test_head_tuples_with_holes () =
  let tuples = heads rule_query [ tup [ i 1; i 10 ] ] in
  check_tuples "hole in existential position" [ tup [ i 1; Value.Hole 0 ] ] tuples

let test_head_tuples_dedup () =
  (* two matches differing only in y project to the same head *)
  let tuples = heads rule_query [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ]; tup [ i 2; i 10 ] ] in
  check_tuples "deduped"
    [ tup [ i 1; Value.Hole 0 ]; tup [ i 2; Value.Hole 0 ] ]
    tuples

let test_head_constants () =
  let q =
    Query.make ~head:(atom "h" [ c (s "tag"); v "x" ]) ~body:[ atom "r" [ v "x"; v "y" ] ] ()
  in
  check_tuples "constant kept" [ tup [ s "tag"; i 3 ] ] (heads q [ tup [ i 3; i 0 ] ])

let test_repeated_existential_same_hole () =
  let q =
    Query.make ~head:(atom "h" [ v "z"; v "z"; v "x" ]) ~body:[ atom "r" [ v "x"; v "y" ] ] ()
  in
  match heads q [ tup [ i 1; i 2 ] ] with
  | [ t ] ->
      Alcotest.(check bool) "same hole index" true (Value.equal t.(0) t.(1));
      (* and after instantiation, the same null *)
      let t' = Row.to_tuple (Row.instantiate_holes ~rule:"r" (Row.of_tuple t)) in
      Alcotest.(check bool) "co-referent nulls" true (Value.equal t'.(0) t'.(1))
  | _ -> Alcotest.fail "expected one tuple"

let test_two_existentials_distinct_holes () =
  let q =
    Query.make ~head:(atom "h" [ v "z1"; v "z2" ]) ~body:[ atom "r" [ v "x"; v "y" ] ] ()
  in
  match heads q [ tup [ i 1; i 2 ] ] with
  | [ t ] -> Alcotest.(check bool) "distinct holes" false (Value.equal t.(0) t.(1))
  | _ -> Alcotest.fail "expected one tuple"

let test_instantiate_fresh_per_tuple () =
  Value.reset_null_counter ();
  let tuples = [ tup [ i 1; Value.Hole 0 ]; tup [ i 2; Value.Hole 0 ] ] in
  match boxed (List.map (Row.instantiate_holes ~rule:"rz") (packed tuples)) with
  | [ t1; t2 ] ->
      Alcotest.(check bool) "fresh per tuple" false (Value.equal t1.(1) t2.(1));
      Alcotest.(check int) "two nulls minted" 2 (Value.null_counter ())
  | _ -> Alcotest.fail "expected two tuples"

let suite =
  [
    Alcotest.test_case "existential head becomes a hole" `Quick test_head_tuples_with_holes;
    Alcotest.test_case "projection deduplicates" `Quick test_head_tuples_dedup;
    Alcotest.test_case "head constants" `Quick test_head_constants;
    Alcotest.test_case "repeated existential is co-referent" `Quick
      test_repeated_existential_same_hole;
    Alcotest.test_case "distinct existentials, distinct holes" `Quick
      test_two_existentials_distinct_holes;
    Alcotest.test_case "instantiation mints fresh nulls per tuple" `Quick
      test_instantiate_fresh_per_tuple;
  ]
