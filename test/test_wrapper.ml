open Helpers
module Wrapper = Codb_core.Wrapper
module Options = Codb_core.Options

let rule_of text =
  let cfg =
    parse_config
      ({|
node imp { relation target(k: int, w: int); }
node src { relation base(k: int, y: int); relation side(y: int, w: int); }
|}
      ^ text)
  in
  List.hd cfg.Config.rules

let src_db rows =
  db_of
    [
      Schema.make "base" [ ("k", Value.Tint); ("y", Value.Tint) ];
      Schema.make "side" [ ("y", Value.Tint); ("w", Value.Tint) ];
    ]
    rows

let imp_db () =
  db_of [ Schema.make "target" [ ("k", Value.Tint); ("w", Value.Tint) ] ] []

let test_eval_rule_full_join () =
  let rule = rule_of "rule r at imp: target(k, w) <- src: base(k, y), side(y, w);" in
  let db =
    src_db
      [ ("base", tup [ i 1; i 10 ]); ("base", tup [ i 2; i 20 ]);
        ("side", tup [ i 10; i 7 ]) ]
  in
  check_tuples "join result" [ tup [ i 1; i 7 ] ] (Wrapper.eval_rule_full db rule)

let test_eval_rule_full_existential () =
  let rule = rule_of "rule r at imp: target(k, z) <- src: base(k, y);" in
  let db = src_db [ ("base", tup [ i 1; i 10 ]) ] in
  check_tuples "existential as hole" [ tup [ i 1; Value.Hole 0 ] ]
    (Wrapper.eval_rule_full db rule)

let test_eval_rule_delta_only_new () =
  let rule = rule_of "rule r at imp: target(k, w) <- src: base(k, y), side(y, w);" in
  let db =
    src_db
      [ ("base", tup [ i 1; i 10 ]); ("side", tup [ i 10; i 7 ]);
        ("side", tup [ i 30; i 9 ]) ]
  in
  let since = Relation.cardinal (Database.relation db "base") in
  let delta = Database.insert_all db "base" [ tup [ i 3; i 30 ] ] in
  check_tuples "delta-derived only" [ tup [ i 3; i 9 ] ]
    (Wrapper.eval_rule_delta ~naive:false db rule ~delta_rel:"base" ~since ~delta)

let test_integrate_counts () =
  let db = imp_db () in
  ignore (Database.insert db "target" (tup [ i 1; i 7 ]));
  let result =
    Wrapper.integrate ~opts:Options.default ~rule_id:"r" db ~rel:"target"
      [ tup [ i 1; i 7 ]; tup [ i 2; i 8 ]; tup [ i 2; i 8 ] ]
  in
  check_tuples "fresh" [ tup [ i 2; i 8 ] ] result.Wrapper.fresh;
  Alcotest.(check int) "two suppressed" 2 result.Wrapper.suppressed;
  Alcotest.(check int) "no nulls" 0 result.Wrapper.nulls_created

let test_integrate_instantiates_holes () =
  Value.reset_null_counter ();
  let db = imp_db () in
  let result =
    Wrapper.integrate ~opts:Options.default ~rule_id:"rx" db ~rel:"target"
      [ tup [ i 1; Value.Hole 0 ] ]
  in
  Alcotest.(check int) "one null" 1 result.Wrapper.nulls_created;
  match result.Wrapper.fresh with
  | [ t ] -> Alcotest.(check bool) "null stored" true (Value.is_null t.(1))
  | _ -> Alcotest.fail "expected one tuple"

let test_integrate_subsumption_on_off () =
  let stored_then_hole opts =
    let db = imp_db () in
    ignore (Database.insert db "target" (tup [ i 1; i 7 ]));
    let result =
      Wrapper.integrate ~opts ~rule_id:"r" db ~rel:"target" [ tup [ i 1; Value.Hole 0 ] ]
    in
    List.length result.Wrapper.fresh
  in
  Alcotest.(check int) "subsumption drops the hole tuple" 0
    (stored_then_hole Options.default);
  Alcotest.(check int) "without subsumption it lands with a null" 1
    (stored_then_hole { Options.default with Options.use_subsumption_dedup = false })

let test_user_answers_rejects_rule_heads () =
  let db = src_db [ ("base", tup [ i 1; i 10 ]) ] in
  let q =
    Query.make ~head:(atom "out" [ v "k"; v "fresh" ]) ~body:[ atom "base" [ v "k"; v "y" ] ] ()
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Wrapper.user_answers db q);
       false
     with Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "rule evaluation with joins" `Quick test_eval_rule_full_join;
    Alcotest.test_case "existential heads become holes" `Quick
      test_eval_rule_full_existential;
    Alcotest.test_case "delta evaluation derives only new" `Quick
      test_eval_rule_delta_only_new;
    Alcotest.test_case "integration counts" `Quick test_integrate_counts;
    Alcotest.test_case "integration mints nulls" `Quick test_integrate_instantiates_holes;
    Alcotest.test_case "subsumption toggle" `Quick test_integrate_subsumption_on_off;
    Alcotest.test_case "user queries reject existential heads" `Quick
      test_user_answers_rejects_rule_heads;
  ]
