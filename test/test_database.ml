open Helpers

let fresh () = Database.create [ r_schema; s_schema ]

let test_create_rejects_duplicates () =
  Alcotest.(check bool)
    "duplicate relation" true
    (try
       ignore (Database.create [ r_schema; r_schema ]);
       false
     with Invalid_argument _ -> true)

let test_lookup () =
  let db = fresh () in
  Alcotest.(check bool) "has r" true (Database.has_relation db "r");
  Alcotest.(check bool) "no t" false (Database.has_relation db "t");
  Alcotest.(check (list string)) "names in order" [ "r"; "s" ] (Database.rel_names db);
  Alcotest.check_raises "unknown relation" Not_found (fun () ->
      ignore (Database.relation db "zzz"))

let test_insert_and_cardinal () =
  let db = fresh () in
  Alcotest.(check bool) "insert" true (Database.insert db "r" (tup [ i 1; i 2 ]));
  Alcotest.(check bool) "dup" false (Database.insert db "r" (tup [ i 1; i 2 ]));
  ignore (Database.insert db "s" (tup [ i 2; s "x" ]));
  Alcotest.(check int) "total" 2 (Database.cardinal db)

let test_insert_all_delta () =
  let db = fresh () in
  ignore (Database.insert db "r" (tup [ i 1; i 1 ]));
  let fresh_tuples = Database.insert_all db "r" [ tup [ i 1; i 1 ]; tup [ i 5; i 5 ] ] in
  check_tuples "delta" [ tup [ i 5; i 5 ] ] fresh_tuples

let test_copy_deep () =
  let db = fresh () in
  ignore (Database.insert db "r" (tup [ i 1; i 1 ]));
  let db2 = Database.copy db in
  ignore (Database.insert db2 "r" (tup [ i 2; i 2 ]));
  Alcotest.(check int) "original" 1 (Database.cardinal db);
  Alcotest.(check int) "copy" 2 (Database.cardinal db2)

let test_equal_contents () =
  let db1 = fresh () and db2 = fresh () in
  ignore (Database.insert db1 "r" (tup [ i 1; i 1 ]));
  Alcotest.(check bool) "differ" false (Database.equal_contents db1 db2);
  ignore (Database.insert db2 "r" (tup [ i 1; i 1 ]));
  Alcotest.(check bool) "equal" true (Database.equal_contents db1 db2)

let test_schema_round_trip () =
  let db = fresh () in
  let schemas = Database.schema db in
  Alcotest.(check int) "two relations" 2 (List.length schemas);
  Alcotest.(check bool) "r first" true (Schema.equal (List.hd schemas) r_schema)

let test_digest () =
  let rows = [ ("r", tup [ i 1; i 2 ]); ("s", tup [ i 2; s "x" ]); ("r", tup [ i 3; i 4 ]) ] in
  let fill db rows = List.iter (fun (rel, t) -> ignore (Database.insert db rel t)) rows in
  let db1 = fresh () and db2 = Database.create [ s_schema; r_schema ] in
  fill db1 rows;
  fill db2 (List.rev rows);
  Alcotest.(check int) "insertion and declaration order ignored" (Database.digest db1)
    (Database.digest db2);
  let db3 = fresh () in
  fill db3 [ ("r", tup [ i 1; i 2 ]); ("s", tup [ i 2; s "y" ]); ("r", tup [ i 3; i 4 ]) ];
  Alcotest.(check bool) "one changed tuple changes the digest" true
    (Database.digest db1 <> Database.digest db3)

let suite =
  [
    Alcotest.test_case "create rejects duplicates" `Quick test_create_rejects_duplicates;
    Alcotest.test_case "relation lookup" `Quick test_lookup;
    Alcotest.test_case "insert and cardinal" `Quick test_insert_and_cardinal;
    Alcotest.test_case "insert_all returns delta" `Quick test_insert_all_delta;
    Alcotest.test_case "copy is deep" `Quick test_copy_deep;
    Alcotest.test_case "equal_contents" `Quick test_equal_contents;
    Alcotest.test_case "schema round trip" `Quick test_schema_round_trip;
    Alcotest.test_case "digest ignores order, sees content" `Quick test_digest;
  ]
