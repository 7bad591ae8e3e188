(* Property-based tests (qcheck) for the core invariants:
   - the evaluator agrees with a brute-force reference on random
     databases and queries;
   - semi-naive delta evaluation brackets exactly the gained answers;
   - printer/parser round-trips on random configurations;
   - the global update is idempotent, terminates, and reaches a
     fix-point (no rule can derive anything new) on random networks,
     cyclic ones and existential heads included;
   - query-time answering equals materialised answers on DAGs. *)

open Helpers
module Q2 = QCheck2
module Gen = QCheck2.Gen
module System = Codb_core.System
module Topology = Codb_core.Topology
module Report = Codb_core.Report
module Node = Codb_core.Node
module Wrapper = Codb_core.Wrapper
module Pretty = Codb_cq.Pretty

let var_pool = [ "x"; "y"; "z"; "w" ]

let gen_value = Gen.map (fun n -> i n) (Gen.int_range 0 5)

let gen_term =
  Gen.oneof
    [ Gen.map (fun v' -> Term.Var v') (Gen.oneofl var_pool); Gen.map c gen_value ]

let gen_atom =
  Gen.oneof
    [
      Gen.map2 (fun t1 t2 -> atom "r" [ t1; t2 ]) gen_term gen_term;
      Gen.map2 (fun t1 t2 -> atom "s2" [ t1; t2 ]) gen_term gen_term;
    ]

let gen_op = Gen.oneofl [ Query.Eq; Query.Neq; Query.Lt; Query.Le; Query.Gt; Query.Ge ]

(* A query over [body]: a head of body variables and at most one
   comparison. *)
let gen_query_of_body body =
  let open Gen in
  let body_vars = Codb_cq.Term.vars (List.concat_map (fun a -> a.Atom.args) body) in
  let* head_vars =
    if body_vars = [] then return []
    else list_size (int_range 0 2) (oneofl body_vars)
  in
  let* comparisons =
    if body_vars = [] then return []
    else
      let gen_cmp =
        let* left = oneofl body_vars in
        let* op = gen_op in
        let* right = oneof [ map (fun v' -> Term.Var v') (oneofl body_vars); map c gen_value ] in
        return { Query.left = Term.Var left; op; right }
      in
      list_size (int_range 0 1) gen_cmp
  in
  return
    (Query.make
       ~head:(atom "ans" (List.map (fun v' -> Term.Var v') head_vars))
       ~body ~comparisons ())

let gen_query = Gen.(list_size (int_range 1 3) gen_atom >>= gen_query_of_body)

(* Two or three atoms over [r], plus at most one other, in any order:
   the self-joins whose later semi-naive passes read the pre-delta
   relation. *)
let gen_self_join_query =
  let open Gen in
  let r_atom = map2 (fun t1 t2 -> atom "r" [ t1; t2 ]) gen_term gen_term in
  let* rs = list_size (int_range 2 3) r_atom in
  let* extra = list_size (int_range 0 1) gen_atom in
  shuffle_l (rs @ extra) >>= gen_query_of_body

let int_pair_schema name =
  Schema.make name [ ("a", Value.Tint); ("b", Value.Tint) ]

let gen_tuple = Gen.map2 (fun a b -> tup [ i a; i b ]) (Gen.int_range 0 5) (Gen.int_range 0 5)

let gen_db =
  let open Gen in
  let* r_tuples = list_size (int_range 0 12) gen_tuple in
  let* s_tuples = list_size (int_range 0 12) gen_tuple in
  return
    (db_of
       [ int_pair_schema "r"; int_pair_schema "s2" ]
       (List.map (fun t -> ("r", t)) r_tuples @ List.map (fun t -> ("s2", t)) s_tuples))

let prop_eval_matches_reference =
  Q2.Test.make ~name:"evaluator agrees with brute force" ~count:200
    (Gen.pair gen_db gen_query)
    (fun (db, q) ->
      let source = Eval.of_database db in
      let fast = sorted_tuples (Eval.answer_tuples source q) in
      let slow = sorted_tuples (Test_eval.reference_answers db q) in
      List.equal Tuple.equal fast slow)

(* Random databases drawn through the workload generator (seeded,
   optionally zipf-skewed) rather than the hand-rolled gen_db above:
   the cost-based planner must return exactly the brute-force
   reference's substitutions, whatever the data shape. *)
let gen_datagen_db =
  let open Gen in
  let* seed = int_range 0 10000 in
  let* skew = oneofl [ 0.0; 1.0 ] in
  let* r_count = int_range 0 30 in
  let* s_count = int_range 0 30 in
  let rng = Codb_workload.Rng.make ~seed in
  let profile = { Codb_workload.Datagen.domain_size = 6; skew } in
  let r_schema = int_pair_schema "r" and s_schema = int_pair_schema "s2" in
  let db = Database.create [ r_schema; s_schema ] in
  ignore
    (Database.insert_all db "r"
       (Codb_workload.Datagen.tuples rng profile r_schema ~count:r_count));
  ignore
    (Database.insert_all db "s2"
       (Codb_workload.Datagen.tuples rng profile s_schema ~count:s_count));
  return db

let subst_set substs =
  List.sort_uniq compare (List.map Codb_cq.Subst.bindings substs)

let prop_planner_matches_reference =
  Q2.Test.make ~name:"planned evaluation = reference substitutions" ~count:300
    (Gen.pair gen_datagen_db gen_query)
    (fun (db, q) ->
      let source = Eval.of_database db in
      let reference = subst_set (Test_eval.reference_substs db q) in
      subst_set (Eval.answers source q) = reference
      && subst_set (Eval.answers ~max_probe_cols:1 source q) = reference)

(* Every substitution of the grown database that was not one before
   grounds some atom to a delta tuple, and vice versa: semi-naive
   evaluation must produce exactly that difference. *)
let prop_delta_matches_reference_gain =
  Q2.Test.make ~name:"delta substitutions = reference gain" ~count:150
    (Gen.triple gen_datagen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple)
       gen_query)
    (fun (db, delta_candidates, q) ->
      let source = Eval.of_database db in
      let before = subst_set (Test_eval.reference_substs db q) in
      let since = Relation.cardinal (Database.relation db "r") in
      let delta = Database.insert_all db "r" delta_candidates in
      let after = subst_set (Test_eval.reference_substs db q) in
      subst_set (Eval.delta_answers source ~delta_rel:"r" ~since ~delta q)
      = List.filter (fun s -> not (List.mem s before)) after)

(* The same gain as a multiset: the semi-naive passes must derive each
   new substitution exactly once.  The set comparison above would pass
   a pre-delta relation that overlaps the delta, which emits every
   derivation through an overlapping tuple twice. *)
let prop_delta_exactly_once =
  Q2.Test.make ~name:"delta substitutions = reference gain, each exactly once" ~count:300
    (Gen.triple gen_datagen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple)
       gen_self_join_query)
    (fun (db, delta_candidates, q) ->
      let source = Eval.of_database db in
      let before = subst_set (Test_eval.reference_substs db q) in
      let since = Relation.cardinal (Database.relation db "r") in
      let delta = Database.insert_all db "r" delta_candidates in
      let gain =
        List.filter
          (fun s -> not (List.mem s before))
          (subst_set (Test_eval.reference_substs db q))
      in
      List.sort compare
        (List.map Codb_cq.Subst.bindings
           (Eval.delta_answers source ~delta_rel:"r" ~since ~delta q))
      = gain)

let prop_delta_brackets_gain =
  Q2.Test.make ~name:"semi-naive delta brackets the gained answers" ~count:200
    (Gen.triple gen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple) gen_query)
    (fun (db, delta_candidates, q) ->
      let source = Eval.of_database db in
      let before = Relation.Tuple_set.of_list (Eval.answer_tuples source q) in
      let since = Relation.cardinal (Database.relation db "r") in
      let delta = Database.insert_all db "r" delta_candidates in
      let after = Eval.answer_tuples source q in
      let derived =
        Relation.Tuple_set.of_list
          (Codb_cq.Apply.head_tuples q
             (Eval.delta_answers source ~delta_rel:"r" ~since ~delta q))
      in
      let gained =
        List.filter (fun t -> not (Relation.Tuple_set.mem t before)) after
      in
      (* gained ⊆ derived ⊆ after *)
      List.for_all (fun t -> Relation.Tuple_set.mem t derived) gained
      && Relation.Tuple_set.for_all
           (fun t -> List.exists (Tuple.equal t) after)
           derived)

let gen_shape =
  Gen.oneofl
    [
      Topology.Chain; Topology.Ring; Topology.Star_in; Topology.Star_out;
      Topology.Binary_tree; Topology.Clique;
    ]

let gen_network =
  let open Gen in
  let* shape = gen_shape in
  let* n = int_range 2 5 in
  let* seed = int_range 0 10000 in
  let* existential_frac = oneofl [ 0.0; 0.3 ] in
  let params =
    { Topology.default_params with Topology.tuples_per_node = 8; existential_frac }
  in
  return (shape, n, seed, params)

let build_net (shape, n, seed, params) =
  System.build_exn (Topology.generate ~params ~seed shape ~n)

let prop_roundtrip_config =
  Q2.Test.make ~name:"pretty-print / parse round trip" ~count:100 gen_network
    (fun (shape, n, seed, params) ->
      let cfg = Topology.generate ~params ~seed shape ~n in
      let text = Pretty.config_to_string cfg in
      match Codb_cq.Parser.load_config text with
      | Error _ -> false
      | Ok cfg2 -> String.equal text (Pretty.config_to_string cfg2))

let prop_update_terminates_and_is_idempotent =
  Q2.Test.make ~name:"update terminates and is idempotent" ~count:40 gen_network
    (fun spec ->
      let sys = build_net spec in
      let u1 = System.run_update sys ~initiator:"n0" in
      let r1 = Option.get (Report.update_report (System.snapshots sys) u1) in
      let tuples_after_first = System.total_tuples sys in
      let u2 = System.run_update sys ~initiator:"n0" in
      let r2 = Option.get (Report.update_report (System.snapshots sys) u2) in
      r1.Report.ur_all_finished && r2.Report.ur_all_finished
      && System.total_tuples sys = tuples_after_first
      && r2.Report.ur_new_tuples = 0)

let prop_update_reaches_fixpoint =
  Q2.Test.make ~name:"after the update no rule derives anything new" ~count:40
    gen_network
    (fun spec ->
      let sys = build_net spec in
      let _ = System.run_update sys ~initiator:"n0" in
      let rule_saturated (r : Config.rule_decl) =
        let source_node = System.node sys r.Config.source in
        let importer = System.node sys r.Config.importer in
        let head_rel = r.Config.rule_query.Query.head.Atom.rel in
        let derivable = Wrapper.eval_rule_full source_node.Node.store r in
        let target = Database.relation importer.Node.store head_rel in
        List.for_all (fun t -> Relation.subsumed target t) derivable
      in
      List.for_all rule_saturated (System.config sys).Config.rules)

let gen_dag_network =
  let open Gen in
  let* shape = oneofl [ Topology.Chain; Topology.Binary_tree; Topology.Star_in ] in
  let* n = int_range 2 6 in
  let* seed = int_range 0 10000 in
  return (shape, n, seed, { Topology.default_params with Topology.tuples_per_node = 8 })

let prop_query_equals_update_on_dags =
  Q2.Test.make ~name:"query-time = materialised answers on DAGs" ~count:40
    gen_dag_network
    (fun ((shape, n, seed, params) as spec) ->
      let q = parse_query "o(x, y) <- data(x, y)" in
      let sys_q = build_net spec in
      let outcome = System.run_query sys_q ~at:"n0" q in
      let sys_u = build_net (shape, n, seed, params) in
      let _ = System.run_update sys_u ~initiator:"n0" in
      let materialised = sorted_tuples (System.local_answers sys_u ~at:"n0" q) in
      (* compare certain answers: null identities differ between the
         two runs by construction *)
      List.equal Tuple.equal
        (sorted_tuples (Eval.certain materialised))
        (sorted_tuples outcome.System.qo_certain))

(* Constraint pushdown is an optimisation, not a semantics change: on
   any network (cycles and existential heads included) and any query,
   the answer set, the certain answers and the completeness flag agree
   across pushdown on/off.  Null identities are
   run-dependent, so each tuple's nulls are canonicalised to their
   first-occurrence index inside the tuple before comparison. *)
let canonical_nulls t =
  let seen = Hashtbl.create 4 in
  Array.map
    (function
      | Value.Null { Value.null_id; _ } ->
          let idx =
            match Hashtbl.find_opt seen null_id with
            | Some idx -> idx
            | None ->
                let idx = Hashtbl.length seen in
                Hashtbl.add seen null_id idx;
                idx
          in
          Value.Str (Printf.sprintf "\x00null%d" idx)
      | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ | Value.Hole _) as v
        ->
          v)
    t

let gen_pushdown_case =
  let open Gen in
  let* spec = gen_network in
  let* qtext =
    oneofl
      [
        "o(y) <- data(3, y)";
        "o(x, y) <- data(x, y), x < 3";
        "o(y) <- data(2, y), data(2, z)";
        "o(x, y) <- data(x, y)";
        (* a value-column constant: refutes existential-headed rules
           outright (the derived null can never equal it) *)
        "o(x) <- data(x, \"v2\")";
        (* distinct constants over two atoms: a disjunctive constraint
           only the output filter can enforce *)
        "o(y, z) <- data(2, y), data(3, z)";
      ]
  in
  let* cache = Gen.bool in
  return (spec, qtext, cache)

let prop_pushdown_preserves_answers =
  Q2.Test.make ~name:"constraint pushdown never changes answers" ~count:30
    gen_pushdown_case
    (fun ((shape, n, seed, params), qtext, use_query_cache) ->
      let q = parse_query qtext in
      let run ~pushdown =
        let opts =
          { Codb_core.Options.default with Codb_core.Options.pushdown; use_query_cache }
        in
        let sys = System.build_exn ~opts (Topology.generate ~params ~seed shape ~n) in
        let o = System.run_query sys ~at:"n0" q in
        ( sorted_tuples (List.map canonical_nulls o.System.qo_answers),
          sorted_tuples (List.map canonical_nulls o.System.qo_certain),
          o.System.qo_complete )
      in
      let a0, c0, f0 = run ~pushdown:false in
      let a, c, f = run ~pushdown:true in
      List.equal Tuple.equal a0 a && List.equal Tuple.equal c0 c && Bool.equal f0 f)

(* Heterogeneous GLAV networks (joins, existential projections,
   filters) over random shapes: the update must terminate, saturate
   every rule, and be idempotent there too. *)
let gen_glav_network =
  let open Gen in
  let* shape = gen_shape in
  let* n = int_range 2 4 in
  let* seed = int_range 0 10000 in
  let* join_frac = oneofl [ 0.0; 0.5 ] in
  let spec =
    { Codb_workload.Glavgen.default_spec with
      Codb_workload.Glavgen.tuples_per_relation = 6; join_frac }
  in
  return (shape, n, seed, spec)

let build_glav (shape, n, seed, spec) =
  let edges = Topology.edges shape ~n in
  System.build_exn (Codb_workload.Glavgen.generate ~spec ~seed ~edges ~n ())

let prop_glav_update_saturates =
  Q2.Test.make ~name:"GLAV networks: update terminates at a saturated fix-point"
    ~count:30 gen_glav_network
    (fun spec ->
      let sys = build_glav spec in
      let u1 = System.run_update sys ~initiator:"n0" in
      let r1 = Option.get (Report.update_report (System.snapshots sys) u1) in
      let tuples_after = System.total_tuples sys in
      let rule_saturated (r : Config.rule_decl) =
        let source_node = System.node sys r.Config.source in
        let importer = System.node sys r.Config.importer in
        let head_rel = r.Config.rule_query.Query.head.Atom.rel in
        let derivable = Wrapper.eval_rule_full source_node.Node.store r in
        let target = Database.relation importer.Node.store head_rel in
        List.for_all (fun t -> Relation.subsumed target t) derivable
      in
      let u2 = System.run_update sys ~initiator:"n0" in
      let r2 = Option.get (Report.update_report (System.snapshots sys) u2) in
      r1.Report.ur_all_finished
      && List.for_all rule_saturated (System.config sys).Config.rules
      && System.total_tuples sys = tuples_after
      && r2.Report.ur_new_tuples = 0)

let prop_scoped_equals_global_at_initiator =
  Q2.Test.make ~name:"scoped update = global update at the initiator" ~count:30
    gen_network
    (fun ((shape, n, seed, params) as spec) ->
      let q =
        match Codb_cq.Parser.parse_query "o(x, y) <- data(x, y)" with
        | Ok q -> q
        | Error e -> failwith e
      in
      let sys_g = build_net spec in
      let _ = System.run_update sys_g ~initiator:"n0" in
      let sys_s = build_net (shape, n, seed, params) in
      let _ = System.run_scoped_update sys_s ~at:"n0" q in
      (* certain answers match exactly; null identities differ by
         construction between the two runs *)
      List.equal Tuple.equal
        (sorted_tuples (Eval.certain (System.local_answers sys_g ~at:"n0" q)))
        (sorted_tuples (Eval.certain (System.local_answers sys_s ~at:"n0" q))))

let prop_export_import_round_trip =
  Q2.Test.make ~name:"store export/import round-trips" ~count:25 gen_network
    (fun ((shape, n, seed, params) as spec) ->
      let sys = build_net spec in
      let _ = System.run_update sys ~initiator:"n0" in
      let dumps = System.export_stores sys in
      let sys2 = build_net (shape, n, seed, params) in
      let _ = System.import_stores sys2 dumps in
      List.for_all
        (fun name ->
          Database.equal_contents (System.node sys name).Node.store
            (System.node sys2 name).Node.store)
        (System.node_names sys))

let prop_discovery_monotone_in_ttl =
  Q2.Test.make ~name:"discovery is monotone in TTL and bounded by the network"
    ~count:25 gen_network
    (fun (_shape, n, seed, params) ->
      let found ttl =
        let sys = build_net (Topology.Ring, n, seed, params) in
        List.map Codb_net.Peer_id.to_string (System.discover sys ~at:"n0" ~ttl)
      in
      let f1 = found 1 and f3 = found 3 in
      let all = List.init n (fun i -> Printf.sprintf "n%d" i) in
      List.for_all (fun p -> List.mem p f3) f1
      && List.for_all (fun p -> List.mem p all && p <> "n0") f3)

let gen_fault_plan =
  let open Gen in
  let* fault_seed = int_range 0 10000 in
  let* drop = oneofl [ 0.05; 0.15; 0.3; 0.6 ] in
  let* dup = oneofl [ 0.0; 0.1 ] in
  let* jitter = oneofl [ 0.0; 0.002 ] in
  let* budget = int_range 0 10 in
  return (fault_seed, drop, dup, jitter, budget)

let gen_faulted_network =
  let open Gen in
  let* shape = oneofl [ Topology.Chain; Topology.Ring; Topology.Binary_tree ] in
  let* n = int_range 2 5 in
  let* seed = int_range 0 10000 in
  let* plan = gen_fault_plan in
  (* non-existential heads: fresh nulls get run-dependent identities,
     which would make store comparison vacuous *)
  return
    ((shape, n, seed, { Topology.default_params with Topology.tuples_per_node = 8 }),
     plan)

let prop_faulted_update_equals_fault_free =
  (* with drop_budget <= max_retries no message can be dropped more
     times than it will be retransmitted, so every send is eventually
     delivered and the fix-point must coincide with the fault-free run *)
  Q2.Test.make
    ~name:"under retried loss the update fix-point equals the fault-free run"
    ~count:20 gen_faulted_network
    (fun (spec, (fault_seed, drop, dup, jitter, budget)) ->
      let baseline = build_net spec in
      let _ = System.run_update baseline ~initiator:"n0" in
      let opts =
        {
          Codb_core.Options.default with
          Codb_core.Options.fault_seed;
          drop_prob = drop;
          dup_prob = dup;
          jitter;
          drop_budget = budget;
          ack_timeout = 0.05;
          max_retries = 10;
        }
      in
      let shape, n, seed, params = spec in
      let sys =
        System.build_exn ~opts (Topology.generate ~params ~seed shape ~n)
      in
      let report =
        let uid = System.run_update sys ~initiator:"n0" in
        Option.get (Report.update_report (System.snapshots sys) uid)
      in
      report.Report.ur_all_finished
      && (Report.chaos_report (System.snapshots sys)).Report.chr_give_ups = 0
      && List.for_all
           (fun name ->
             Database.equal_contents (System.node baseline name).Node.store
               (System.node sys name).Node.store)
           (System.node_names sys))

let gen_relation_tuples =
  Gen.list_size (Gen.int_range 0 20)
    (Gen.map2
       (fun a b -> tup [ i a; i b ])
       (Gen.int_range (-100) 100)
       (Gen.int_range (-100) 100))

let prop_csv_round_trip =
  Q2.Test.make ~name:"CSV dump/load round-trips random relations" ~count:100
    gen_relation_tuples
    (fun tuples ->
      let db = db_of [ r_schema ] [] in
      ignore (Database.insert_all db "r" tuples);
      let text = Codb_relalg.Csv.dump (Database.relation db "r") in
      let db2 = db_of [ r_schema ] [] in
      let _ = Codb_relalg.Csv.load_into db2 "r" text in
      Database.equal_contents db db2)

let prop_join_order_invariance =
  Q2.Test.make ~name:"body atom order does not change the answers" ~count:150
    (Gen.pair gen_db gen_query)
    (fun (db, q) ->
      let source = Eval.of_database db in
      let reference = sorted_tuples (Eval.answer_tuples source q) in
      let rotated =
        match q.Query.body with
        | first :: rest -> { q with Query.body = rest @ [ first ] }
        | [] -> q
      in
      let reversed = { q with Query.body = List.rev q.Query.body } in
      List.equal Tuple.equal reference
        (sorted_tuples (Eval.answer_tuples source rotated))
      && List.equal Tuple.equal reference
           (sorted_tuples (Eval.answer_tuples source reversed)))

let prop_lexer_total =
  Q2.Test.make ~name:"the lexer never crashes: tokens or Lex_error" ~count:300
    Gen.(string_size ~gen:printable (int_range 0 60))
    (fun input ->
      match Codb_cq.Lexer.tokenize input with
      | tokens -> tokens <> []  (* at least EOF *)
      | exception Codb_cq.Lexer.Lex_error _ -> true)

let prop_parser_total =
  Q2.Test.make ~name:"the parser never crashes on lexable garbage" ~count:300
    Gen.(string_size ~gen:printable (int_range 0 80))
    (fun input ->
      match Codb_cq.Parser.parse_config input with Ok _ | Error _ -> true)

let prop_containment_reflexive =
  Q2.Test.make ~name:"containment is reflexive" ~count:100 gen_query
    (fun q ->
      (* reflexivity holds for any well-formed comparison-free query;
         with comparisons our conservative test must still accept the
         syntactically identical query *)
      Codb_cq.Containment.contained q q
      || (* vacuous queries with no head vars and unsatisfiable
            comparisons may be rejected conservatively *)
      q.Query.comparisons <> [])

let prop_nulls_counter_monotone =
  Q2.Test.make ~name:"every stored null was minted by the generator" ~count:30
    gen_network
    (fun spec ->
      Value.reset_null_counter ();
      let sys = build_net spec in
      let _ = System.run_update sys ~initiator:"n0" in
      let minted = Value.null_counter () in
      let ok = ref true in
      List.iter
        (fun name ->
          let node = System.node sys name in
          List.iter
            (fun rel ->
              List.iter
                (fun t ->
                  Array.iter
                    (fun v ->
                      match v with
                      | Value.Null n ->
                          if n.Value.null_id < 1 || n.Value.null_id > minted then
                            ok := false
                      | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _
                      | Value.Hole _ ->
                          ())
                    t)
                (Database.tuples node.Node.store rel))
            (Database.rel_names node.Node.store))
        (System.node_names sys);
      !ok)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eval_matches_reference;
      prop_planner_matches_reference;
      prop_delta_matches_reference_gain;
      prop_delta_exactly_once;
      prop_delta_brackets_gain;
      prop_roundtrip_config;
      prop_update_terminates_and_is_idempotent;
      prop_update_reaches_fixpoint;
      prop_query_equals_update_on_dags;
      prop_pushdown_preserves_answers;
      prop_glav_update_saturates;
      prop_scoped_equals_global_at_initiator;
      prop_export_import_round_trip;
      prop_faulted_update_equals_fault_free;
      prop_discovery_monotone_in_ttl;
      prop_csv_round_trip;
      prop_join_order_invariance;
      prop_lexer_total;
      prop_parser_total;
      prop_containment_reflexive;
      prop_nulls_counter_monotone;
    ]
