open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology

let chain_cfg () =
  parse_config
    {|
node n0 { relation who(name: string); }
node n1 { relation person(name: string, dept: string);
          fact person("carol", "bio"); }
node n2 { relation person(name: string, dept: string);
          fact person("alice", "cs");
          fact person("bob", "cs"); }
rule r10 at n1: person(x, d) <- n2: person(x, d);
rule r01 at n0: who(x) <- n1: person(x, d);
|}

let test_query_fetches_remote_data () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  check_tuples "all three names"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    outcome.System.qo_answers

let test_query_does_not_materialise () =
  let sys = System.build_exn (chain_cfg ()) in
  let before = System.total_tuples sys in
  let _ = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  Alcotest.(check int) "stores unchanged" before (System.total_tuples sys)

let test_query_local_only_when_no_relevant_rule () =
  let sys = System.build_exn (chain_cfg ()) in
  (* n1's person query pulls from n2 but not from n0 (no such rule) *)
  let outcome = System.run_query sys ~at:"n1" (parse_query "p(x) <- person(x, d)") in
  check_tuples "n1 names"
    [ tup [ s "alice" ]; tup [ s "bob" ]; tup [ s "carol" ] ]
    outcome.System.qo_answers

let test_query_with_selection () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome =
    System.run_query sys ~at:"n1" (parse_query "p(x) <- person(x, d), d = \"cs\"")
  in
  check_tuples "cs only" [ tup [ s "alice" ]; tup [ s "bob" ] ] outcome.System.qo_answers

let test_query_equals_update_on_dag () =
  (* on an acyclic network, query-time answers = after-update local
     answers *)
  let mk () = Topology.generate ~seed:77 Topology.Binary_tree ~n:7
      ~params:{ Topology.default_params with tuples_per_node = 12 } in
  let q = parse_query "o(x, y) <- data(x, y)" in
  let sys_q = System.build_exn (mk ()) in
  let outcome = System.run_query sys_q ~at:"n0" q in
  let sys_u = System.build_exn (mk ()) in
  let _ = System.run_update sys_u ~initiator:"n0" in
  check_tuples "query = materialised" (System.local_answers sys_u ~at:"n0" q)
    outcome.System.qo_answers

let test_query_on_cycle_terminates () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int); fact r(1); }
node b { relation r(x: int); fact r(2); }
rule ab at a: r(x) <- b: r(x);
rule ba at b: r(x) <- a: r(x);
|}
  in
  let sys = System.build_exn cfg in
  let outcome = System.run_query sys ~at:"a" (parse_query "o(x) <- r(x)") in
  (* simple paths: a sees b's data; labels stop the loop *)
  check_tuples "union over simple paths" [ tup [ i 1 ]; tup [ i 2 ] ]
    outcome.System.qo_answers

let test_query_existential_yields_nulls () =
  let cfg =
    parse_config
      {|
node a { relation r(x: int, y: int); }
node b { relation q(x: int); fact q(5); }
rule e at a: r(x, z) <- b: q(x);
|}
  in
  let sys = System.build_exn cfg in
  let outcome = System.run_query sys ~at:"a" (parse_query "o(x, y) <- r(x, y)") in
  Alcotest.(check int) "one answer" 1 (List.length outcome.System.qo_answers);
  Alcotest.(check int) "not certain" 0 (List.length outcome.System.qo_certain)

let test_concurrent_queries_do_not_interfere () =
  let sys = System.build_exn (chain_cfg ()) in
  let rt0 = System.runtime sys "n0" in
  let rt1 = System.runtime sys "n1" in
  let n0 = System.node sys "n0" and n1 = System.node sys "n1" in
  let qid0 = Codb_core.Ids.query_id n0.Codb_core.Node.node_id 100 in
  let qid1 = Codb_core.Ids.query_id n1.Codb_core.Node.node_id 101 in
  let ref0 = Codb_core.Query_engine.start rt0 qid0 (parse_query "w(x) <- who(x)") in
  let ref1 =
    Codb_core.Query_engine.start rt1 qid1 (parse_query "p(x) <- person(x, d)")
  in
  let _ = System.run sys in
  let r0 = Option.get (Codb_core.Query_engine.result n0 ref0) in
  let r1 = Option.get (Codb_core.Query_engine.result n1 ref1) in
  Alcotest.(check int) "n0 query" 3 (List.length r0);
  Alcotest.(check int) "n1 query" 3 (List.length r1)

let test_query_rejects_unknown_relation () =
  let sys = System.build_exn (chain_cfg ()) in
  Alcotest.(check bool) "raises" true
    (try
       ignore (System.run_query sys ~at:"n0" (parse_query "w(x) <- nosuch(x)"));
       false
     with Invalid_argument _ -> true);
  Alcotest.check_raises "wrong arity raises, naming both"
    (Invalid_argument "Query_engine.start: who has 1 column, the query uses 2")
    (fun () -> ignore (System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x, y)")))

let test_query_stats_recorded () =
  let sys = System.build_exn (chain_cfg ()) in
  let outcome = System.run_query sys ~at:"n0" (parse_query "w(x) <- who(x)") in
  Alcotest.(check bool) "nonzero latency" true
    (outcome.System.qo_finished > outcome.System.qo_started);
  Alcotest.(check bool) "data messages counted" true (outcome.System.qo_data_msgs >= 2);
  Alcotest.(check bool) "bytes counted" true (outcome.System.qo_bytes > 0)

let test_streaming_batches () =
  let sys = System.build_exn (chain_cfg ()) in
  let batches = ref [] in
  let outcome =
    System.run_query sys
      ~on_partial:(fun tuples -> batches := tuples :: !batches)
      ~at:"n1"
      (parse_query "p(x) <- person(x, d)")
  in
  let batches = List.rev !batches in
  (* the first batch is what n1 knows locally, before any message *)
  (match batches with
  | first :: _ -> check_tuples "local answers first" [ tup [ s "carol" ] ] first
  | [] -> Alcotest.fail "nothing streamed");
  (* batches are disjoint and their union is the final answer set *)
  let all = List.concat batches in
  let distinct = Relation.Tuple_set.of_list all in
  Alcotest.(check int) "no duplicates across batches"
    (Relation.Tuple_set.cardinal distinct)
    (List.length all);
  check_tuples "union = final result" outcome.System.qo_answers all

let test_streaming_empty_when_no_answers () =
  let sys = System.build_exn (chain_cfg ()) in
  let calls = ref 0 in
  let _ =
    System.run_query sys
      ~on_partial:(fun _ -> incr calls)
      ~at:"n0"
      (parse_query "w(x) <- who(x), x = \"nobody\"")
  in
  Alcotest.(check int) "callback never fired" 0 !calls

let suite =
  [
    Alcotest.test_case "fetches remote data through rules" `Quick
      test_query_fetches_remote_data;
    Alcotest.test_case "streams batches, local first, no duplicates" `Quick
      test_streaming_batches;
    Alcotest.test_case "streams nothing when empty" `Quick
      test_streaming_empty_when_no_answers;
    Alcotest.test_case "leaves local stores untouched" `Quick
      test_query_does_not_materialise;
    Alcotest.test_case "pulls only through relevant rules" `Quick
      test_query_local_only_when_no_relevant_rule;
    Alcotest.test_case "selection predicates apply" `Quick test_query_with_selection;
    Alcotest.test_case "equals materialised answers on a DAG" `Quick
      test_query_equals_update_on_dag;
    Alcotest.test_case "terminates on cycles via labels" `Quick
      test_query_on_cycle_terminates;
    Alcotest.test_case "existential rules yield non-certain answers" `Quick
      test_query_existential_yields_nulls;
    Alcotest.test_case "concurrent queries are isolated" `Quick
      test_concurrent_queries_do_not_interfere;
    Alcotest.test_case "unknown relation rejected" `Quick
      test_query_rejects_unknown_relation;
    Alcotest.test_case "statistics recorded" `Quick test_query_stats_recorded;
  ]
