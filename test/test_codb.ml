(* Test entry point: one alcotest run covering every library. *)

let () =
  Alcotest.run "codb"
    [
      ("value", Test_value.suite);
      ("intern", Test_intern.suite);
      ("tuple", Test_tuple.suite);
      ("schema", Test_schema.suite);
      ("relation", Test_relation.suite);
      ("database", Test_database.suite);
      ("csv", Test_csv.suite);
      ("query", Test_query.suite);
      ("eval", Test_eval.suite);
      ("plan", Test_plan.suite);
      ("apply", Test_apply.suite);
      ("containment", Test_containment.suite);
      ("specialize", Test_specialize.suite);
      ("parser", Test_parser.suite);
      ("net", Test_net.suite);
      ("options", Test_options.suite);
      ("update", Test_update.suite);
      ("protocol", Test_protocol.suite);
      ("incremental", Test_incremental.suite);
      ("control", Test_control.suite);
      ("scoped-update", Test_scoped_update.suite);
      ("analysis", Test_analysis.suite);
      ("wrapper", Test_wrapper.suite);
      ("stats", Test_stats.suite);
      ("payload", Test_payload.suite);
      ("bytes", Test_bytes.suite);
      ("codec", Test_codec.suite);
      ("states", Test_states.suite);
      ("query-engine", Test_query_engine.suite);
      ("query-protocol", Test_query_protocol.suite);
      ("topology", Test_topology.suite);
      ("system", Test_system.suite);
      ("chaos", Test_chaos.suite);
      ("recovery", Test_recovery.suite);
      ("sub", Test_sub.suite);
      ("workload", Test_workload.suite);
      ("properties", Test_props.suite);
    ]
