open Helpers
module Csv = Codb_relalg.Csv

let mixed_schema =
  Schema.make "m"
    [ ("k", Value.Tint); ("name", Value.Tstring); ("w", Value.Tfloat); ("ok", Value.Tbool) ]

let test_parse_line () =
  let t = Csv.parse_line mixed_schema 1 "3,\"alice\",2.5,true" in
  Alcotest.check tuple_testable "parsed"
    (tup [ i 3; s "alice"; Value.Float 2.5; Value.Bool true ])
    t

let test_unquoted_string () =
  let t = Csv.parse_line mixed_schema 1 "3,bob,1.0,false" in
  Alcotest.(check bool) "bare string" true (Value.equal t.(1) (s "bob"))

let test_quoted_escapes () =
  let t = Csv.parse_line mixed_schema 1 "1,\"say \"\"hi\"\"\",0.0,true" in
  Alcotest.(check bool) "escaped quote" true (Value.equal t.(1) (s "say \"hi\""))

let test_parse_errors () =
  let fails line =
    try
      ignore (Csv.parse_line mixed_schema 1 line);
      false
    with Csv.Parse_error _ -> true
  in
  Alcotest.(check bool) "bad int" true (fails "x,a,1.0,true");
  Alcotest.(check bool) "bad bool" true (fails "1,a,1.0,yes");
  Alcotest.(check bool) "wrong arity" true (fails "1,a,1.0")

let test_load_string_skips_noise () =
  let text = "# comment\n1,a,1.0,true\n\n2,b,2.0,false\n" in
  let tuples = Csv.load_string mixed_schema text in
  Alcotest.(check int) "two tuples" 2 (List.length tuples)

let test_dump_load_round_trip () =
  Value.reset_null_counter ();
  let db = Database.create [ mixed_schema ] in
  ignore (Database.insert db "m" (tup [ i 1; s "x,y"; Value.Float 0.5; Value.Bool true ]));
  ignore
    (Database.insert db "m"
       (tup [ i 2; Value.fresh_null ~rule:"r7"; Value.Float 1.5; Value.Bool false ]));
  let text = Csv.dump (Database.relation db "m") in
  let db2 = Database.create [ mixed_schema ] in
  let n = Csv.load_into db2 "m" text in
  Alcotest.(check int) "two loaded" 2 n;
  Alcotest.(check bool) "identical contents" true (Database.equal_contents db db2)

let test_null_round_trip_preserves_identity () =
  Value.reset_null_counter ();
  let null = Value.fresh_null ~rule:"rx" in
  let db = Database.create [ r_schema ] in
  ignore (Database.insert db "r" (tup [ i 1; null ]));
  let text = Csv.dump (Database.relation db "r") in
  let loaded = Csv.load_string r_schema text in
  match (List.hd loaded).(1) with
  | Value.Null n ->
      Alcotest.(check string) "rule kept" "rx" n.Value.null_rule;
      Alcotest.(check bool) "id kept" true (Value.equal (Value.Null n) null)
  | _ -> Alcotest.fail "expected a null"

let contains_substring ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec loop i = i + n <= h && (String.sub haystack i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let test_dump_database_sections () =
  let db = Database.create [ r_schema; s_schema ] in
  ignore (Database.insert db "r" (tup [ i 1; i 2 ]));
  let text = Csv.dump_database db in
  Alcotest.(check bool) "has r section" true
    (contains_substring ~needle:"# relation r" text);
  Alcotest.(check bool) "has s section" true
    (contains_substring ~needle:"# relation s" text)

let test_load_database_round_trip () =
  Value.reset_null_counter ();
  let db = Database.create [ r_schema; s_schema ] in
  ignore (Database.insert db "r" (tup [ i 1; Value.fresh_null ~rule:"z" ]));
  ignore (Database.insert db "r" (tup [ i 2; i 3 ]));
  ignore (Database.insert db "s" (tup [ i 3; s "x" ]));
  let text = Csv.dump_database db in
  let db2 = Database.create [ r_schema; s_schema ] in
  let n = Csv.load_database db2 text in
  Alcotest.(check int) "three tuples" 3 n;
  Alcotest.(check bool) "identical" true (Database.equal_contents db db2);
  (* loading again adds nothing (set semantics) *)
  Alcotest.(check int) "idempotent" 0 (Csv.load_database db2 text)

let test_load_database_errors () =
  let db = Database.create [ r_schema ] in
  let fails text =
    try
      ignore (Csv.load_database db text);
      false
    with Csv.Parse_error _ -> true
  in
  Alcotest.(check bool) "unknown section" true (fails "# relation nope\n1,2");
  Alcotest.(check bool) "tuple before section" true (fails "1,2")

let test_system_export_import () =
  let module System = Codb_core.System in
  let module Topology = Codb_core.Topology in
  let mk () =
    System.build_exn
      (Topology.generate ~seed:61
         ~params:{ Topology.default_params with Topology.tuples_per_node = 8 }
         Topology.Chain ~n:3)
  in
  let sys = mk () in
  let _ = System.run_update sys ~initiator:"n0" in
  let dumps = System.export_stores sys in
  Alcotest.(check int) "three dumps" 3 (List.length dumps);
  (* a fresh network built from the same file, stores replaced by the
     exported state, must equal the materialised one *)
  let sys2 = mk () in
  let loaded = Result.get_ok (System.import_stores sys2 dumps) in
  Alcotest.(check bool) "new tuples loaded" true (loaded > 0);
  Alcotest.(check int) "same total" (System.total_tuples sys) (System.total_tuples sys2)

let test_system_import_error () =
  let module System = Codb_core.System in
  let module Topology = Codb_core.Topology in
  let module Node = Codb_core.Node in
  let mk () = System.build_exn (Topology.generate ~seed:61 Topology.Chain ~n:2) in
  let full = mk () in
  let _ = System.run_update full ~initiator:"n0" in
  (* n0's dump is valid and brings new tuples; n1's is malformed *)
  let n0_dump = List.assoc "n0" (System.export_stores full) in
  let sys = mk () in
  let store name = (System.node sys name).Node.store in
  let before = List.map (fun name -> Database.copy (store name)) [ "n0"; "n1" ] in
  (match System.import_stores sys [ ("n0", n0_dump); ("n1", "\n1,2\n") ] with
  | Ok _ -> Alcotest.fail "a tuple before any section was accepted"
  | Error why ->
      Alcotest.(check string) "names the node and the line"
        "node n1, line 2: tuple outside any '# relation' section" why);
  List.iter2
    (fun name old ->
      Alcotest.(check bool) (name ^ " store untouched") true
        (Database.equal_contents old (store name)))
    [ "n0"; "n1" ] before;
  Alcotest.(check bool) "the valid dump alone adds tuples" true
    (Result.get_ok (System.import_stores sys [ ("n0", n0_dump) ]) > 0)

let suite =
  [
    Alcotest.test_case "parse typed line" `Quick test_parse_line;
    Alcotest.test_case "load_database round trip" `Quick test_load_database_round_trip;
    Alcotest.test_case "load_database errors" `Quick test_load_database_errors;
    Alcotest.test_case "system export/import" `Quick test_system_export_import;
    Alcotest.test_case "system import names the bad line" `Quick test_system_import_error;
    Alcotest.test_case "unquoted strings" `Quick test_unquoted_string;
    Alcotest.test_case "quote escaping" `Quick test_quoted_escapes;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "comments and blanks skipped" `Quick test_load_string_skips_noise;
    Alcotest.test_case "dump/load round trip" `Quick test_dump_load_round_trip;
    Alcotest.test_case "null identity round trip" `Quick
      test_null_round_trip_preserves_identity;
    Alcotest.test_case "dump_database sections" `Quick test_dump_database_sections;
  ]
