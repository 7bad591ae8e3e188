open Helpers

let test_compare_lexicographic () =
  Alcotest.(check bool) "first column" true (Tuple.compare (tup [ i 1; i 9 ]) (tup [ i 2; i 0 ]) < 0);
  Alcotest.(check bool) "second column" true (Tuple.compare (tup [ i 1; i 1 ]) (tup [ i 1; i 2 ]) < 0);
  Alcotest.(check bool) "equal" true (Tuple.compare (tup [ i 1; i 2 ]) (tup [ i 1; i 2 ]) = 0);
  Alcotest.(check bool) "length" true (Tuple.compare (tup [ i 1 ]) (tup [ i 1; i 2 ]) < 0)

let test_has_hole_null () =
  Alcotest.(check bool) "hole" true (Tuple.has_hole (tup [ i 1; Value.Hole 0 ]));
  Alcotest.(check bool) "no hole" false (Tuple.has_hole (tup [ i 1; s "x" ]));
  let null = Value.fresh_null ~rule:"r" in
  Alcotest.(check bool) "null" true (Tuple.has_null (tup [ null ]));
  Alcotest.(check bool) "no null" false (Tuple.has_null (tup [ i 1 ]))

let test_subsumes_exact () =
  let a = tup [ i 1; s "x" ] in
  Alcotest.(check bool) "identical" true (Tuple.subsumes a (tup [ i 1; s "x" ]));
  Alcotest.(check bool) "different" false (Tuple.subsumes a (tup [ i 1; s "y" ]))

let test_subsumes_holes () =
  let null = Value.fresh_null ~rule:"r" in
  let stored = tup [ i 1; null ] in
  Alcotest.(check bool)
    "null matches hole" true
    (Tuple.subsumes stored (tup [ i 1; Value.Hole 0 ]));
  Alcotest.(check bool)
    "a concrete value witnesses a hole" true
    (Tuple.subsumes (tup [ i 1; s "x" ]) (tup [ i 1; Value.Hole 0 ]));
  Alcotest.(check bool)
    "mismatch on concrete part" false
    (Tuple.subsumes stored (tup [ i 2; Value.Hole 0 ]))

let test_instantiate_holes () =
  Value.reset_null_counter ();
  let t = tup [ i 1; Value.Hole 0; Value.Hole 1 ] in
  let t' = Row.to_tuple (Row.instantiate_holes ~rule:"r9" (Row.of_tuple t)) in
  Alcotest.(check bool) "no holes left" false (Tuple.has_hole t');
  Alcotest.(check bool) "nulls introduced" true (Tuple.has_null t');
  (match (t'.(1), t'.(2)) with
  | Value.Null n1, Value.Null n2 ->
      Alcotest.(check bool) "distinct holes get distinct nulls" true
        (n1.Value.null_id <> n2.Value.null_id);
      Alcotest.(check string) "rule recorded" "r9" n1.Value.null_rule
  | _ -> Alcotest.fail "expected nulls");
  (* repeated hole index stays co-referent *)
  let t2 =
    Row.to_tuple (Row.instantiate_holes ~rule:"r" (Row.of_tuple (tup [ Value.Hole 5; Value.Hole 5 ])))
  in
  Alcotest.(check bool) "same hole same null" true (Value.equal t2.(0) t2.(1))

let test_instantiate_no_holes_is_identity () =
  let row = Row.of_tuple (tup [ i 1; s "x" ]) in
  Alcotest.(check bool) "physically equal" true (Row.instantiate_holes ~rule:"r" row == row)

let test_size_bytes () =
  (* varint arity header plus the per-value wire sizes *)
  Alcotest.(check int) "header plus fields" (1 + 2 + (3 + 2))
    (Tuple.size_bytes (tup [ i 1; s "ab" ]))

let suite =
  [
    Alcotest.test_case "lexicographic compare" `Quick test_compare_lexicographic;
    Alcotest.test_case "has_hole / has_null" `Quick test_has_hole_null;
    Alcotest.test_case "subsumption, exact part" `Quick test_subsumes_exact;
    Alcotest.test_case "subsumption, holes vs nulls" `Quick test_subsumes_holes;
    Alcotest.test_case "hole instantiation" `Quick test_instantiate_holes;
    Alcotest.test_case "instantiation without holes" `Quick
      test_instantiate_no_holes_is_identity;
    Alcotest.test_case "wire size" `Quick test_size_bytes;
  ]
