open Helpers
module Wrapper = Codb_core.Wrapper
module Options = Codb_core.Options
module Sent_filter = Codb_core.Sent_filter

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
  ignore (Database.insert_all db "base" [ tup [ i 3; i 30 ] ]);
  check_tuples "delta-derived only" [ tup [ i 3; i 9 ] ]
    (boxed
       (Eval.run ~delta_rel:"base" ~since
          (Wrapper.prepare ~sent:(Sent_filter.create ()) ~naive:false db rule.Config.rule_query)))

(* The sent filter is the projection's dedup: a head reached by two
   derivations comes back once and is noted once, and a head already
   in the filter does not come back at all. *)
let test_sent_filter_is_projection_dedup () =
  let rule = rule_of "rule r at imp: target(k, z) <- src: base(k, y);" in
  let db =
    src_db
      [ ("base", tup [ i 1; i 10 ]); ("base", tup [ i 1; i 11 ]);
        ("base", tup [ i 2; i 20 ]) ]
  in
  let sent = Sent_filter.create () in
  Row.Table.replace (Sent_filter.rows sent) (Row.of_tuple (tup [ i 2; Value.Hole 0 ])) ();
  check_tuples "two derivations, one head; the sent head dropped"
    [ tup [ i 1; Value.Hole 0 ] ]
    (Wrapper.eval_rule_full ~sent db rule);
  Alcotest.(check int) "noted once" 2 (Sent_filter.tracked sent);
  check_tuples "nothing left to send" [] (Wrapper.eval_rule_full ~sent db rule);
  let since = Relation.cardinal (Database.relation db "base") in
  ignore (Database.insert_all db "base" [ tup [ i 1; i 12 ]; tup [ i 3; i 30 ] ]);
  check_tuples "delta form filters through the same table"
    [ tup [ i 3; Value.Hole 0 ] ]
    (boxed
       (Eval.run ~delta_rel:"base" ~since
          (Wrapper.prepare ~sent ~naive:false db rule.Config.rule_query)));
  check_tuples "the filter holds every head sent"
    [ tup [ i 1; Value.Hole 0 ]; tup [ i 2; Value.Hole 0 ]; tup [ i 3; Value.Hole 0 ] ]
    (boxed (Sent_filter.elements sent))

(* First contact over a relation whose heads were all sent already:
   every match is a hash lookup in the filter, so the evaluation
   allocates next to nothing per row (a boxed substitution, head tuple
   and set node per row cost well over a hundred words). *)
let test_sent_heads_allocate_nothing_per_row () =
  let rule = rule_of "rule r at imp: target(k, w) <- src: base(k, w);" in
  let rows = 20_000 in
  let db = src_db (List.init rows (fun k -> ("base", tup [ i k; i (k mod 7) ]))) in
  let sent = Sent_filter.create () in
  Alcotest.(check int) "first evaluation sends every head" rows
    (List.length (Wrapper.eval_rule_full ~sent db rule));
  let before = Gc.minor_words () in
  let again = Wrapper.eval_rule_full ~sent db rule in
  let per_row = (Gc.minor_words () -. before) /. float_of_int rows in
  Alcotest.(check int) "nothing to resend" 0 (List.length again);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per already-sent row (bound 2)" per_row)
    true (per_row < 2.)

let test_integrate_counts () =
  let db = imp_db () in
  ignore (Database.insert db "target" (tup [ i 1; i 7 ]));
  let result =
    Wrapper.integrate ~opts:Options.default ~rule_id:"r" db ~rel:"target"
      (packed [ tup [ i 1; i 7 ]; tup [ i 2; i 8 ]; tup [ i 2; i 8 ] ])
  in
  check_tuples "fresh" [ tup [ i 2; i 8 ] ] (boxed result.Wrapper.fresh);
  Alcotest.(check int) "two suppressed" 2 result.Wrapper.suppressed;
  Alcotest.(check int) "no nulls" 0 result.Wrapper.nulls_created

let test_integrate_instantiates_holes () =
  Value.reset_null_counter ();
  let db = imp_db () in
  let result =
    Wrapper.integrate ~opts:Options.default ~rule_id:"rx" db ~rel:"target"
      (packed [ tup [ i 1; Value.Hole 0 ] ])
  in
  Alcotest.(check int) "one null" 1 result.Wrapper.nulls_created;
  match boxed result.Wrapper.fresh with
  | [ t ] -> Alcotest.(check bool) "null stored" true (Value.is_null t.(1))
  | _ -> Alcotest.fail "expected one tuple"

let test_integrate_subsumption_on_off () =
  let stored_then_hole opts =
    let db = imp_db () in
    ignore (Database.insert db "target" (tup [ i 1; i 7 ]));
    let result =
      Wrapper.integrate ~opts ~rule_id:"r" db ~rel:"target" (packed [ tup [ i 1; Value.Hole 0 ] ])
    in
    List.length result.Wrapper.fresh
  in
  Alcotest.(check int) "subsumption drops the hole tuple" 0
    (stored_then_hole Options.default);
  Alcotest.(check int) "without subsumption it lands with a null" 1
    (stored_then_hole { Options.default with Options.use_subsumption_dedup = false })

(* Every hole row is checked against the store as it stood before the
   batch: a ground row of the same batch that would subsume it does
   not drop it. *)
let test_integrate_checks_holes_before_the_batch () =
  let db = imp_db () in
  ignore (Database.insert db "target" (tup [ i 5; i 5 ]));
  let result =
    Wrapper.integrate ~opts:Options.default ~rule_id:"r" db ~rel:"target"
      (packed
         [ tup [ i 1; i 7 ]; tup [ i 1; Value.Hole 0 ]; tup [ i 5; Value.Hole 0 ]; tup [ i 1; i 7 ] ])
  in
  Alcotest.(check int) "the ground row and the hole row its batch subsumes land" 2
    (List.length result.Wrapper.fresh);
  Alcotest.(check int) "a stored row subsumes a hole row; a repeat is a duplicate" 2
    result.Wrapper.suppressed;
  Alcotest.(check int) "one null" 1 result.Wrapper.nulls_created;
  Alcotest.(check int) "since" 1 result.Wrapper.since

(* Integration appends in one pass: a batch of fresh ground rows pays
   for its columns, the row index's growth and the [fresh] list, and
   builds no other list.  Growth arrays past 256 words skip the minor
   heap, so direct major words count too; native code only, as every
   allocation gate. *)
let test_integrate_allocation_per_row () =
  if Sys.backend_type = Sys.Native then begin
    let n = 20_000 in
    let rows = packed (List.init n (fun k -> tup [ i k; i (k mod 7) ])) in
    let db = imp_db () in
    let allocated_words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let before = allocated_words () in
    let result = Wrapper.integrate ~opts:Options.default ~rule_id:"r" db ~rel:"target" rows in
    let per_row = (allocated_words () -. before) /. float_of_int n in
    Alcotest.(check int) "all fresh" n (List.length result.Wrapper.fresh);
    Alcotest.(check bool)
      (Printf.sprintf "integrate: %.1f words per fresh row (bound 14)" per_row)
      true (per_row < 14.)
  end

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
    Alcotest.test_case "the sent filter is the projection's dedup" `Quick
      test_sent_filter_is_projection_dedup;
    Alcotest.test_case "already-sent heads allocate nothing per row" `Quick
      test_sent_heads_allocate_nothing_per_row;
    Alcotest.test_case "integration counts" `Quick test_integrate_counts;
    Alcotest.test_case "integration mints nulls" `Quick test_integrate_instantiates_holes;
    Alcotest.test_case "subsumption toggle" `Quick test_integrate_subsumption_on_off;
    Alcotest.test_case "hole rows are checked against the store before the batch" `Quick
      test_integrate_checks_holes_before_the_batch;
    Alcotest.test_case "integration allocates a bounded amount per fresh row" `Quick
      test_integrate_allocation_per_row;
    Alcotest.test_case "user queries reject existential heads" `Quick
      test_user_answers_rejects_rule_heads;
  ]
