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
      let fast = sorted_tuples (answer_tuples source q) in
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

(* [q] with every body variable in its head: its head rows are its
   substitutions. *)
let all_vars_head q =
  Query.make
    ~head:(atom "ans" (List.map (fun v' -> Term.Var v') (Query.body_vars q)))
    ~body:q.Query.body ~comparisons:q.Query.comparisons ()

(* Every substitution of the grown database that was not one before
   grounds some atom to a delta tuple, and vice versa: semi-naive
   evaluation must produce exactly that difference, self-joins
   included.  The head projector de-duplicates, so a derivation that
   came out twice would not show here; the next property counts them. *)
let prop_delta_matches_reference_gain =
  Q2.Test.make ~name:"delta substitutions = reference gain" ~count:300
    (Gen.triple gen_datagen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple)
       (Gen.oneof [ gen_query; gen_self_join_query ]))
    (fun (db, delta_candidates, q) ->
      let q = all_vars_head q in
      let source = Eval.of_database db in
      let before = Test_eval.reference_answers db q in
      let since = Relation.cardinal (Database.relation db "r") in
      ignore (Database.insert_all db "r" delta_candidates);
      let gain =
        List.filter
          (fun t -> not (List.exists (Tuple.equal t) before))
          (sorted_tuples (Test_eval.reference_answers db q))
      in
      List.equal Tuple.equal (boxed (one_shot source ~delta_rel:"r" ~since q)) gain)

(* The same gain as a multiset: the semi-naive passes must derive each
   new substitution exactly once, counted as the matches they hand the
   projector.  The set comparison above would pass an old relation
   that overlaps the window, which derives every substitution through
   an overlapping row twice. *)
let prop_delta_exactly_once =
  Q2.Test.make ~name:"delta substitutions = reference gain, each exactly once" ~count:300
    (Gen.triple gen_datagen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple)
       gen_self_join_query)
    (fun (db, delta_candidates, q) ->
      let q = all_vars_head q in
      let source = Eval.of_database db in
      let before = Test_eval.reference_answers db q in
      let since = Relation.cardinal (Database.relation db "r") in
      ignore (Database.insert_all db "r" delta_candidates);
      let gain =
        List.filter
          (fun t -> not (List.exists (Tuple.equal t) before))
          (sorted_tuples (Test_eval.reference_answers db q))
      in
      let matches0 = (Eval.counters ()).Eval.matches in
      let rows = one_shot source ~delta_rel:"r" ~since q in
      (Eval.counters ()).Eval.matches - matches0 = List.length gain
      && List.equal Tuple.equal (boxed rows) gain)

let prop_delta_brackets_gain =
  Q2.Test.make ~name:"semi-naive delta brackets the gained answers" ~count:200
    (Gen.triple gen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple) gen_query)
    (fun (db, delta_candidates, q) ->
      let source = Eval.of_database db in
      let before = Relation.Tuple_set.of_list (answer_tuples source q) in
      let since = Relation.cardinal (Database.relation db "r") in
      ignore (Database.insert_all db "r" delta_candidates);
      let after = answer_tuples source q in
      let derived =
        Relation.Tuple_set.of_list (boxed (one_shot source ~delta_rel:"r" ~since q))
      in
      let gained =
        List.filter (fun t -> not (Relation.Tuple_set.mem t before)) after
      in
      (* gained ⊆ derived ⊆ after *)
      List.for_all (fun t -> Relation.Tuple_set.mem t derived) gained
      && Relation.Tuple_set.for_all
           (fun t -> List.exists (Tuple.equal t) after)
           derived)

(* A GLAV rule over [body]: head terms drawn from body variables,
   existential variables (bound by no atom) and constants, with
   repetition, plus the comparisons of [gen_query_of_body]. *)
let gen_rule_query_of_body body =
  let open Gen in
  let* q = gen_query_of_body body in
  let body_vars = Codb_cq.Term.vars (List.concat_map (fun a -> a.Atom.args) body) in
  let var_of pool = map (fun v' -> Term.Var v') (oneofl pool) in
  let* head =
    list_size (int_range 0 4)
      (oneof
         ((if body_vars = [] then [] else [ var_of body_vars; var_of body_vars ])
         @ [ var_of [ "e1"; "e2" ]; map c gen_value ]))
  in
  return
    (Query.make ~head:(atom "ans" head) ~body:q.Query.body
       ~comparisons:q.Query.comparisons ())

(* The packed head projector returns exactly the oracle projection of
   the boxed substitutions: in the full form, and in a prepared rule's
   run, whose substitutions are the grown database's that were not ones
   before (semi-naive) or all of them (naive). *)
let prop_projector_matches_oracle =
  Q2.Test.make ~name:"head projector = oracle projection of the substitutions" ~count:300
    (Gen.quad gen_datagen_db (Gen.list_size (Gen.int_range 1 5) gen_tuple)
       Gen.(list_size (int_range 1 3) gen_atom >>= gen_rule_query_of_body)
       Gen.bool)
    (fun (db, delta_candidates, q, naive) ->
      let source = Eval.of_database db in
      let before = Eval.answers source q in
      let full_ok =
        List.equal Tuple.equal (boxed (Eval.heads source q)) (Head_ref.head_tuples q before)
      in
      let since = Relation.cardinal (Database.relation db "r") in
      ignore (Database.insert_all db "r" delta_candidates);
      let after = Eval.answers source q in
      let substs =
        if naive then after
        else
          let old = subst_set before in
          List.filter (fun s -> not (List.mem (Codb_cq.Subst.bindings s) old)) after
      in
      full_ok
      && List.equal Tuple.equal
           (boxed (one_shot ~naive source ~delta_rel:"r" ~since q))
           (Head_ref.head_tuples q substs))

(* A prepared rule run over successive insert windows, after a full
   evaluation into its table (a query responder's life): each batch's
   runs return exactly the heads the full join gained through it, and
   the table ends equal to the full evaluation of the final database.
   A batch may be run as two windows cut at [upto]; batches of up to 24
   rows grow [r] far past the size its stream was planned on, and the
   plan serves them all. *)
let prop_prepared_matches_full_gain =
  Q2.Test.make ~name:"prepared rule = full-join gain, table = full heads" ~count:300
    (Gen.quad gen_db
       Gen.(
         list_size (int_range 1 5)
           (pair (list_size (frequency [ (3, int_range 0 4); (1, int_range 12 24) ]) gen_tuple) bool))
       Gen.(
         frequency
           [
             (1, list_size (int_range 1 3) gen_atom >>= gen_rule_query_of_body);
             (2, gen_self_join_query >>= fun q -> gen_rule_query_of_body q.Query.body);
           ])
       Gen.bool)
    (fun (db, batches, q, naive) ->
      let source = Eval.of_database db in
      let into = Row.Table.create 8 in
      ignore (Eval.heads ~into source q);
      let prepared = Eval.prepare ~naive ~into source q in
      let runs_ok =
        List.for_all
          (fun (batch, split) ->
            let before = Eval.heads source q in
            let since = Relation.cardinal (Database.relation db "r") in
            ignore (Database.insert_all db "r" batch);
            let upto = Relation.cardinal (Database.relation db "r") in
            let gain =
              List.filter
                (fun row -> not (List.exists (Row.equal row) before))
                (Eval.heads source q)
            in
            let derived =
              if split && upto - since >= 2 then
                let mid = since + ((upto - since) / 2) in
                List.merge Row.compare
                  (Eval.run ~delta_rel:"r" ~since ~upto:mid prepared)
                  (Eval.run ~delta_rel:"r" ~since:mid ~upto prepared)
              else Eval.run ~delta_rel:"r" ~since ~upto prepared
            in
            List.equal Row.equal gain derived)
          batches
      in
      let table = List.sort Row.compare (Row.Table.fold (fun row () acc -> row :: acc) into []) in
      runs_ok && List.equal Row.equal table (Eval.heads source q))

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
   the certain answers and the completeness flag agree exactly across
   pushdown on/off, and the answer sets agree modulo marked nulls (a
   homomorphism each way, {!Helpers.null_equivalent}).  Equality of
   the null-carrying answers themselves is not the specification: the
   two runs import along different paths, so one may hold [(2, N)]
   where the other holds [(2, N')] and [(2, N'')], or a row the other
   subsumes by a constant. *)
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
  return (spec, qtext)

let pushdown_agrees ((shape, n, seed, params), qtext) =
  let q = parse_query qtext in
  let run ~pushdown =
    let opts = { Codb_core.Options.default with Codb_core.Options.pushdown } in
    let sys = System.build_exn ~opts (Topology.generate ~params ~seed shape ~n) in
    let o = System.run_query sys ~at:"n0" q in
    (o.System.qo_answers, sorted_tuples o.System.qo_certain, o.System.qo_complete)
  in
  let a0, c0, f0 = run ~pushdown:false in
  let a, c, f = run ~pushdown:true in
  List.equal Tuple.equal c0 c && Bool.equal f0 f && null_equivalent a0 a

let prop_pushdown_preserves_answers =
  Q2.Test.make ~name:"constraint pushdown never changes answers" ~count:30
    ~print:(fun ((shape, n, seed, params), qtext) ->
      Printf.sprintf "%s n=%d seed=%d existential_frac=%g %S"
        (Topology.shape_name shape) n seed params.Topology.existential_frac qtext)
    gen_pushdown_case pushdown_agrees

(* Cases where pushdown on and off return different null-carrying
   answers with equal certain answers (drawn by qcheck seeds
   957441220, 261768660 and 396518084): each run's answers map into
   the other's. *)
let test_pushdown_null_answers () =
  let null id = Value.Null { Value.null_id = id; null_rule = "r" } in
  Alcotest.(check bool) "a row a constant subsumes" true
    (null_equivalent [ tup [ i 2; null 1 ]; tup [ i 2; i 5 ] ] [ tup [ i 2; i 5 ] ]);
  Alcotest.(check bool) "a shared null must map consistently" false
    (null_equivalent
       [ tup [ null 1; i 1 ]; tup [ null 1; i 2 ] ]
       [ tup [ i 7; i 1 ]; tup [ i 8; i 2 ] ]);
  Alcotest.(check bool) "a constant has no image" false
    (null_equivalent [ tup [ i 2; null 1 ] ] [ tup [ i 3; i 4 ] ]);
  let params =
    { Topology.default_params with Topology.tuples_per_node = 8; existential_frac = 0.3 }
  in
  List.iter
    (fun (shape, n, seed, qtext) ->
      let case = ((shape, n, seed, params), qtext) in
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d seed=%d %s" (Topology.shape_name shape) n seed qtext)
        true (pushdown_agrees case))
    [
      (Topology.Clique, 5, 6278, "o(x, y) <- data(x, y), x < 3");
      (Topology.Star_in, 3, 6580, "o(x, y) <- data(x, y), x < 3");
      (Topology.Clique, 5, 3366, "o(y) <- data(3, y)");
    ]

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

let build_glav ?opts (shape, n, seed, spec) =
  let edges = Topology.edges shape ~n in
  System.build_exn ?opts (Codb_workload.Glavgen.generate ~spec ~seed ~edges ~n ())

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

(* Lineage on GLAV networks with no local inserts, after two global
   updates with a node crashing inside the first and restarting: every
   relation's windows are disjoint, ascending and inside the store,
   cover no declared fact and every other row, and a node recovered
   from its snapshot, or under [Dur_wal] from its own log after a
   crash, explains every stored tuple as the original does. *)
let prop_lineage_windows_tile_imports =
  let module Lineage = Codb_core.Lineage in
  let module Options = Codb_core.Options in
  Q2.Test.make ~name:"lineage windows tile the imported rows and survive a snapshot" ~count:30
    Gen.(
      triple gen_glav_network (oneofl [ Options.Dur_wal; Options.Dur_volatile ])
        (pair (int_range 0 2) (oneofl [ 0.002; 0.01 ])))
    (fun (((_, n, _, _) as net), durability, (victim, at)) ->
      let victim = Topology.node_name (1 + (victim mod (n - 1))) in
      let opts =
        { Options.default with
          Options.ack_timeout = 0.05; max_retries = 8; durability;
          crash_plan = [ (victim, at, Some 0.15) ] }
      in
      let sys = build_glav ~opts net in
      ignore (System.run_update sys ~initiator:"n0");
      ignore (System.run_update sys ~initiator:"n0");
      let tiled (node : Node.t) rel =
        let cardinal = Relation.cardinal (Database.relation node.Node.store rel) in
        let facts =
          List.sort_uniq Tuple.compare
            (List.filter_map
               (fun (r, t) -> if String.equal r rel then Some t else None)
               node.Node.decl.Config.facts)
        in
        let rec ascending pos = function
          | (w : Lineage.window) :: rest ->
              pos <= w.Lineage.w_since && w.Lineage.w_since < w.Lineage.w_upto
              && ascending w.Lineage.w_upto rest
          | [] -> pos <= cardinal
        in
        let windows = Lineage.windows node.Node.lineage ~rel in
        let covered =
          List.fold_left (fun acc (w : Lineage.window) -> acc + w.Lineage.w_upto - w.Lineage.w_since) 0 windows
        in
        ascending 0 windows
        && covered = cardinal - List.length facts
        && List.for_all (fun t -> Node.explain node ~rel t = Some Lineage.Base) facts
      in
      let recovered (node : Node.t) =
        let backend = Codb_store.Backend.memory () in
        let snapshot = Codb_core.Durable.encode_snapshot node in
        Codb_store.Wal.snapshot_now
          (Codb_store.Wal.create ~backend ~snapshot_every:1000 ~take_snapshot:(fun () -> snapshot) ());
        let fresh = Node.create node.Node.decl in
        ignore (Codb_core.Durable.recover fresh opts ~backend : Codb_core.Durable.recovery_stats);
        origins fresh = origins node
      in
      (* under [Dur_wal], a crash and restart recovers the node's own
         log, with whatever snapshot it cut by itself *)
      let restarted name =
        durability <> Options.Dur_wal
        ||
        let before = origins (System.node sys name) in
        System.crash_node sys name;
        System.restart_node sys name;
        origins (System.node sys name) = before
      in
      (Codb_net.Network.counters (System.net sys)).Codb_net.Network.crashes = 1
      && List.for_all
           (fun name ->
             let node = System.node sys name in
             List.for_all (tiled node) (Database.rel_names node.Node.store)
             && recovered node && restarted name)
           (System.node_names sys))

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
      ignore (Result.get_ok (System.import_stores sys2 dumps));
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
     which would make store comparison vacuous.  The large case ships
     a lazy serve of several hundred distinct rows to a parent in one
     message; its wide domain is drawn uniformly, since a skewed draw
     over it is slow to generate *)
  let* params =
    oneofl
      [
        { Topology.default_params with Topology.tuples_per_node = 8 };
        {
          Topology.default_params with
          Topology.tuples_per_node = 300;
          profile = { Codb_workload.Datagen.domain_size = 100_000; skew = 0.0 };
        };
      ]
  in
  return ((shape, n, seed, params), plan)

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
      let reference = sorted_tuples (answer_tuples source q) in
      let rotated =
        match q.Query.body with
        | first :: rest -> { q with Query.body = rest @ [ first ] }
        | [] -> q
      in
      let reversed = { q with Query.body = List.rev q.Query.body } in
      List.equal Tuple.equal reference
        (sorted_tuples (answer_tuples source rotated))
      && List.equal Tuple.equal reference
           (sorted_tuples (answer_tuples source reversed)))

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

(* Statements that a network file may carry but [System.build] must
   refuse with an error: a duplicate node, a same-node rule, unknown
   relations and nodes, ill-typed and overflowing facts, an arity
   mismatch, an ill-typed head, duplicate rule and relation names. *)
let bad_statements =
  [
    "node n0 { relation data(k: int, v: string); }";
    "rule r_self at n0: data(x, y) <- n0: data(x, y);";
    "rule r_unknown at n0: nosuch(x) <- n1: data(x, y);";
    "rule r_ghost at ghost: data(x, y) <- n0: data(x, y);";
    "node n9 { relation data(k: int, v: string); fact data(\"oops\", 3); }";
    "node n8 { relation data(k: int); fact data(99999999999999999999); }";
    "node n7 { relation data(k: int); fact nosuch(1); }";
    "rule r_arity at n0: data(x) <- n1: data(x, y);";
    "rule r_type at n0: data(y, x) <- n1: data(x, y);";
    "rule r_0_1 at n1: data(x, y) <- n0: data(x, y);";
    "node n6 { relation data(k: int); relation data(k: int); }";
  ]

(* A valid generated network text with one or two bad statements
   put before or after it and, one time in three, printable garbage at
   a random offset. *)
let gen_mutated_network =
  let open Gen in
  let* shape, n, seed, params = gen_network in
  let base = Pretty.config_to_string (Topology.generate ~params ~seed shape ~n) in
  let* inserts = list_size (int_range 1 2) (pair (oneofl bad_statements) bool) in
  let text =
    List.fold_left
      (fun text (stmt, before) -> if before then stmt ^ "\n" ^ text else text ^ "\n" ^ stmt)
      base inserts
  in
  let* garbage = oneof [ return ""; return ""; string_size ~gen:printable (int_range 1 8) ] in
  let* at = int_range 0 (String.length text) in
  return (String.sub text 0 at ^ garbage ^ String.sub text at (String.length text - at))

let prop_build_total =
  Q2.Test.make ~name:"parse then build never raises on garbage or bad networks" ~count:300
    Gen.(oneof [ string_size ~gen:printable (int_range 0 80); gen_mutated_network ])
    (fun input ->
      match Codb_cq.Parser.parse_config input with
      | Error _ -> true
      | Ok cfg -> ( match System.build cfg with Ok _ | Error _ -> true))

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


(* Termination is never declared early.  Step the simulator one event
   at a time until the initiator's state turns terminated; at that
   instant no update data or link close the receiver would still
   process may be queued (a framed copy its receiver already processed
   is a duplicate it will suppress), and every rule must already be
   saturated.  Run to the end, the update must also have finished
   unforced.  Topologies with and without cycles, fault-free or
   reliable under drops, duplicates and jitter within
   the retry budget. *)
let gen_termination_case =
  let open Gen in
  let* shape =
    oneofl
      [ Topology.Binary_tree; Topology.Chain; Topology.Ring; Topology.Clique; Topology.Star_in;
        Topology.Star_out; Topology.Random_graph 0.2 ]
  in
  let* glav = bool in
  let* n = int_range 2 6 in
  let* seed = int_range 0 10000 in
  let* faults = option gen_fault_plan in
  return (shape, glav, n, seed, faults)

let print_termination_case (shape, glav, n, seed, faults) =
  Printf.sprintf "%s%s n=%d seed=%d faults=%s" (Topology.shape_name shape)
    (if glav then " (glav)" else "")
    n seed
    (match faults with
    | None -> "none"
    | Some (fs, d, u, j, b) -> Printf.sprintf "seed %d drop %g dup %g jitter %g budget %d" fs d u j b)

(* A random graph is made connected as [Topology.generate] makes it:
   the chain backbone under the random edges, so its cycles carry
   pendant trees. *)
let termination_edges shape ~n ~seed =
  match shape with
  | Topology.Random_graph _ ->
      let edges = Topology.edges ~rng:(Codb_workload.Rng.make ~seed) shape ~n in
      edges
      @ List.filter (fun e -> not (List.mem e edges)) (List.init (n - 1) (fun i -> (i, i + 1)))
  | _ -> Topology.edges shape ~n

let pending_update_message sys uid (m : Codb_core.Payload.t Codb_net.Message.t) =
  let module P = Codb_core.Payload in
  let of_update = function
    | P.Update_data { update_id; _ } | P.Update_batch { update_id; _ }
    | P.Update_link_closed { update_id; _ } ->
        Codb_core.Ids.equal_update update_id uid
    | _ -> false
  in
  match m.Codb_net.Message.payload with
  | P.Seq { seq; inner } ->
      let receiver = System.node sys (Codb_net.Peer_id.to_string m.Codb_net.Message.dst) in
      let processed =
        match receiver.Node.relay with
        | Some relay -> Codb_core.Relay.seen relay ~src:m.Codb_net.Message.src ~seq
        | None -> false
      in
      of_update inner && not processed
  | payload -> of_update payload

let prop_no_premature_termination =
  Q2.Test.make ~name:"update termination is never declared early" ~count:60
    ~print:print_termination_case gen_termination_case
    (fun (shape, glav, n, seed, faults) ->
      let opts =
        let base = Codb_core.Options.default in
        match faults with
        | None -> base
        | Some (fault_seed, drop, dup, jitter, budget) ->
            {
              base with
              Codb_core.Options.fault_seed;
              drop_prob = drop;
              dup_prob = dup;
              jitter;
              drop_budget = budget;
              ack_timeout = 0.05;
              max_retries = 10;
            }
      in
      let config =
        if glav then
          Codb_workload.Glavgen.generate
            ~spec:
              { Codb_workload.Glavgen.default_spec with
                Codb_workload.Glavgen.tuples_per_relation = 6; join_frac = 0.5 }
            ~seed ~edges:(termination_edges shape ~n ~seed) ~n ()
        else
          Topology.generate
            ~params:{ Topology.default_params with Topology.tuples_per_node = 8 }
            ~seed shape ~n
      in
      let sys = System.build_exn ~opts config in
      let uid = System.start_update sys ~initiator:"n0" in
      let terminated () =
        match Node.update_state (System.node sys "n0") uid with
        | Some st -> st.Codb_core.Update_state.ust_terminated
        | None -> false
      in
      let net = System.net sys in
      while (not (terminated ())) && Codb_net.Network.step net do
        ()
      done;
      let quiet =
        not (List.exists (pending_update_message sys uid) (Codb_net.Network.in_flight net))
      in
      let saturated =
        List.for_all
          (fun (r : Config.rule_decl) ->
            let source = System.node sys r.Config.source in
            let importer = System.node sys r.Config.importer in
            let target =
              Database.relation importer.Node.store r.Config.rule_query.Query.head.Atom.rel
            in
            List.for_all (Relation.subsumed target) (Wrapper.eval_rule_full source.Node.store r))
          (System.config sys).Config.rules
      in
      ignore (System.run sys : int);
      let report = Option.get (Report.update_report (System.snapshots sys) uid) in
      let chaos = Report.chaos_report (System.snapshots sys) in
      (* a node the terminated flood skipped must have terminated on
         its own, at its disengagement *)
      let every_state_released =
        List.for_all
          (fun name ->
            match Node.update_state (System.node sys name) uid with
            | Some st ->
                st.Codb_core.Update_state.ust_terminated
                && Option.is_none st.Codb_core.Update_state.ust_live
            | None -> true)
          (System.node_names sys)
      in
      terminated () && quiet && saturated && report.Report.ur_all_finished
      && chaos.Report.chr_forced_updates = 0 && every_state_released)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eval_matches_reference;
      prop_planner_matches_reference;
      prop_delta_matches_reference_gain;
      prop_delta_exactly_once;
      prop_delta_brackets_gain;
      prop_projector_matches_oracle;
      prop_prepared_matches_full_gain;
      prop_roundtrip_config;
      prop_update_terminates_and_is_idempotent;
      prop_update_reaches_fixpoint;
      prop_query_equals_update_on_dags;
      prop_pushdown_preserves_answers;
      prop_glav_update_saturates;
      prop_lineage_windows_tile_imports;
      prop_scoped_equals_global_at_initiator;
      prop_export_import_round_trip;
      prop_faulted_update_equals_fault_free;
      prop_discovery_monotone_in_ttl;
      prop_csv_round_trip;
      prop_join_order_invariance;
      prop_lexer_total;
      prop_parser_total;
      prop_build_total;
      prop_containment_reflexive;
      prop_nulls_counter_monotone;
      prop_no_premature_termination;
    ]
  @ [
      Alcotest.test_case "pushdown: null answers equal modulo renaming" `Quick
        test_pushdown_null_answers;
    ]
