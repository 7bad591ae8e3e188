module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Eval = Codb_cq.Eval

type integration = {
  since : int;
  fresh : Tuple.t list;
  suppressed : int;
  nulls_created : int;
}

let into = Option.map Sent_filter.rows

let eval_query_full ?sent db query =
  Eval.heads ?into:(into sent) (Eval.of_database db) query

let eval_query_delta ?sent ~naive ?delta db query ~delta_rel ~since =
  Eval.delta_heads ~naive ?into:(into sent) (Eval.of_database db) ~delta_rel ~since
    ?delta query

let eval_rule_full ?opts:_ ?sent db (rule : Config.rule_decl) =
  eval_query_full ?sent db rule.Config.rule_query

let eval_rule_delta ?sent ~naive ?delta db (rule : Config.rule_decl) ~delta_rel ~since =
  eval_query_delta ?sent ~naive ?delta db rule.Config.rule_query ~delta_rel ~since

let integrate ~(opts : Options.t) ~rule_id db ~rel tuples =
  let relation = Database.relation db rel in
  let is_duplicate t =
    if opts.Options.use_subsumption_dedup then Relation.subsumed relation t
    else (not (Tuple.has_hole t)) && Relation.mem relation t
  in
  let incoming_fresh = List.filter (fun t -> not (is_duplicate t)) tuples in
  let suppressed = List.length tuples - List.length incoming_fresh in
  let nulls_before = Value.null_counter () in
  (* Holes stay on the wire and become marked nulls only here, after
     duplicate suppression: that is what lets the importer see that an
     incoming tuple is subsumed by one it already has, and hence what
     makes cyclic rule systems reach a fix-point. *)
  let instantiated = List.map (Tuple.instantiate_holes ~rule:rule_id) incoming_fresh in
  let nulls_created = Value.null_counter () - nulls_before in
  let since = Relation.cardinal relation in
  let fresh = Database.insert_all db rel instantiated in
  let suppressed = suppressed + (List.length instantiated - List.length fresh) in
  { since; fresh; suppressed; nulls_created }

let user_answers db q = Eval.answer_tuples (Eval.of_database db) q
