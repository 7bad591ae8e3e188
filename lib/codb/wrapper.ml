module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Apply = Codb_cq.Apply

type integration = {
  fresh : Tuple.t list;
  suppressed : int;
  nulls_created : int;
}

let eval_query_full db query =
  Apply.head_tuples query (Eval.answers (Eval.of_database db) query)

let eval_query_delta ~naive db query ~delta_rel ~delta =
  let substs =
    Eval.delta_answers ~naive (Eval.of_database db) ~delta_rel ~delta query
  in
  Apply.head_tuples query substs

let eval_rule_full ?opts:_ db (rule : Config.rule_decl) =
  eval_query_full db rule.Config.rule_query

let eval_rule_delta ~naive db (rule : Config.rule_decl) ~delta_rel ~delta =
  eval_query_delta ~naive db rule.Config.rule_query ~delta_rel ~delta

let integrate ~(opts : Options.t) ~rule_id db ~rel tuples =
  let relation = Database.relation db rel in
  let is_duplicate t =
    if opts.Options.use_subsumption_dedup then Relation.subsumed relation t
    else (not (Tuple.has_hole t)) && Relation.mem relation t
  in
  let incoming_fresh = List.filter (fun t -> not (is_duplicate t)) tuples in
  let suppressed = List.length tuples - List.length incoming_fresh in
  let nulls_before = Value.null_counter () in
  let instantiated = Apply.instantiate ~rule:rule_id incoming_fresh in
  let nulls_created = Value.null_counter () - nulls_before in
  let fresh = Database.insert_all db rel instantiated in
  let suppressed = suppressed + (List.length instantiated - List.length fresh) in
  { fresh; suppressed; nulls_created }

let user_answers db q = Eval.answer_tuples (Eval.of_database db) q
