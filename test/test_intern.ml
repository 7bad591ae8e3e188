(* The intern table's contract: [pack] is injective up to
   [Value.compare]-equality, [unpack] inverts it up to the same
   equivalence and returns shared canonical boxes, and the packed
   order/hash agree with the boxed ones.  Exercised over generators
   covering every [Value.t] constructor, including the nasty corners:
   NaN, -0., ints and holes outside the 60-bit payload range, and
   marked nulls whose rule tags differ. *)

open Helpers
module Intern = Codb_relalg.Intern
module Q2 = QCheck2
module Gen = QCheck2.Gen

let gen_int_value =
  Gen.oneof
    [
      Gen.map i (Gen.int_range (-100) 100);
      Gen.map i Gen.int;
      Gen.oneofl [ i min_int; i max_int; i (max_int asr 3); i ((max_int asr 3) + 1) ];
    ]

let gen_float_value =
  Gen.oneof
    [
      Gen.map (fun f -> Value.Float f) Gen.float;
      Gen.oneofl
        [
          Value.Float Float.nan;
          Value.Float (-0.);
          Value.Float 0.;
          Value.Float Float.infinity;
          Value.Float Float.neg_infinity;
        ];
    ]

let gen_str_value = Gen.map s Gen.(string_size ~gen:printable (int_range 0 12))

let gen_null_value =
  Gen.map2
    (fun null_id null_rule -> Value.Null { Value.null_id; null_rule })
    (Gen.int_range 1 40)
    Gen.(oneofl [ "r1"; "r2"; "rx" ])

let gen_hole_value =
  Gen.oneof
    [
      Gen.map (fun k -> Value.Hole k) (Gen.int_range 0 10);
      Gen.oneofl [ Value.Hole max_int; Value.Hole ((max_int asr 3) + 1) ];
    ]

let gen_value =
  Gen.oneof
    [
      gen_int_value;
      gen_float_value;
      gen_str_value;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      gen_null_value;
      gen_hole_value;
    ]

let sign n = Stdlib.compare n 0

let prop_round_trip =
  Q2.Test.make ~name:"intern round-trips: compare (canonical v) v = 0" ~count:2000
    gen_value
    (fun v -> Value.compare (Intern.canonical v) v = 0)

let prop_pack_injective_up_to_compare =
  Q2.Test.make ~name:"pack equality = Value.compare equality" ~count:2000
    (Gen.pair gen_value gen_value)
    (fun (a, b) -> Intern.equal (Intern.pack a) (Intern.pack b) = (Value.compare a b = 0))

let prop_packed_compare_consistent =
  Q2.Test.make ~name:"packed compare agrees with Value.compare" ~count:2000
    (Gen.pair gen_value gen_value)
    (fun (a, b) ->
      sign (Intern.compare (Intern.pack a) (Intern.pack b)) = sign (Value.compare a b))

let prop_canonical_idempotent_and_shared =
  Q2.Test.make ~name:"canonical boxes are shared (== stable)" ~count:1000 gen_value
    (fun v ->
      let c1 = Intern.canonical v in
      let c2 = Intern.canonical v in
      c1 == c2 && Intern.canonical c1 == c1)

let prop_predicates_match =
  Q2.Test.make ~name:"packed is_hole/is_null mirror the boxed predicates" ~count:1000
    gen_value
    (fun v ->
      let p = Intern.pack v in
      Intern.is_hole p = Value.is_hole v && Intern.is_null p = Value.is_null v)

let prop_tuple_hash_consistent =
  Q2.Test.make ~name:"Tuple.hash is consistent with Tuple.equal" ~count:1000
    (Gen.pair (Gen.list_size (Gen.int_range 1 4) gen_value)
       (Gen.list_size (Gen.int_range 1 4) gen_value))
    (fun (l1, l2) ->
      let t1 = tup l1 and t2 = tup l2 in
      (not (Tuple.equal t1 t2)) || Tuple.hash t1 = Tuple.hash t2)

let test_overflow_ints_round_trip () =
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "int %d" n)
        true
        (Value.compare (Intern.canonical (i n)) (i n) = 0))
    [ min_int; max_int; (max_int asr 3) + 1; -((max_int asr 3) + 2) ]

let test_null_rule_is_provenance () =
  (* same id, different rule: one packed identity, like Value.compare *)
  let n1 = Value.Null { Value.null_id = 7; null_rule = "a" } in
  let n2 = Value.Null { Value.null_id = 7; null_rule = "b" } in
  Alcotest.(check bool) "same packed" true (Intern.pack n1 = Intern.pack n2)

let test_reset_starts_new_epoch () =
  Value.reset_null_counter ();
  let n1 = Value.fresh_null ~rule:"first" in
  let p1 = Intern.pack n1 in
  Value.reset_null_counter ();
  let n2 = Value.fresh_null ~rule:"second" in
  (* same reissued id, but a fresh intern epoch: the canonical box
     carries the new rule, not the stale one *)
  (match Intern.unpack (Intern.pack n2) with
  | Value.Null { Value.null_rule; _ } ->
      Alcotest.(check string) "new epoch rule" "second" null_rule
  | _ -> Alcotest.fail "expected a null");
  (* packed values of the old epoch still unpack *)
  match Intern.unpack p1 with
  | Value.Null { Value.null_rule; _ } ->
      Alcotest.(check string) "old epoch rule" "first" null_rule
  | _ -> Alcotest.fail "expected a null"

(* The codec unpacks every cell it writes: once a value's canonical
   box exists, unpacking it must allocate nothing, whatever its tag. *)
let test_unpack_allocates_nothing () =
  let values =
    [
      i 42; i (-5); i 100_000; i max_int; Value.Float 1.5; s "unpacked"; Value.Bool true;
      Value.Null { Value.null_id = 9_999; null_rule = "r" }; Value.Hole 3;
      Value.Hole max_int;
    ]
  in
  List.iter
    (fun v ->
      let p = Intern.pack v in
      ignore (Sys.opaque_identity (Intern.unpack p));
      let lookups = 1000 in
      let before = Gc.minor_words () in
      for _ = 1 to lookups do
        ignore (Sys.opaque_identity (Intern.unpack p))
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int lookups in
      if words >= 1.0 then
        Alcotest.failf "unpacking %s allocates %.1f words" (Value.to_string v) words)
    values

let suite =
  [
    Alcotest.test_case "overflow ints round trip" `Quick test_overflow_ints_round_trip;
    Alcotest.test_case "unpack of an existing canonical value allocates nothing" `Quick
      test_unpack_allocates_nothing;
    Alcotest.test_case "null rule is provenance, not identity" `Quick
      test_null_rule_is_provenance;
    Alcotest.test_case "null-counter reset starts a new intern epoch" `Quick
      test_reset_starts_new_epoch;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_round_trip;
        prop_pack_injective_up_to_compare;
        prop_packed_compare_consistent;
        prop_canonical_idempotent_and_shared;
        prop_predicates_match;
        prop_tuple_hash_consistent;
      ]
