module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Eval = Codb_cq.Eval

module Row = Codb_relalg.Row

type integration = {
  since : int;
  fresh : Row.t list;
  suppressed : int;
  nulls_created : int;
}

let into = Option.map Sent_filter.rows

let eval_query_full ?sent db query =
  Eval.heads ?into:(into sent) (Eval.of_database db) query

let prepare ~sent ~naive db query =
  Eval.prepare ~naive ~into:(Sent_filter.rows sent) (Eval.of_database db) query

let eval_rule_full ?opts:_ ?sent db (rule : Config.rule_decl) =
  List.map Row.to_tuple (eval_query_full ?sent db rule.Config.rule_query)

let integrate ~(opts : Options.t) ~rule_id db ~rel rows =
  let relation = Database.relation db rel in
  let is_duplicate row =
    if opts.Options.use_subsumption_dedup then Relation.subsumed_row relation row
    else (not (Row.has_hole row)) && Relation.mem_row relation row
  in
  (* every row is checked against the store as it stood before this
     batch: a hole row is kept even when a ground row of the same batch
     would subsume it *)
  let incoming_fresh = List.filter (fun row -> not (is_duplicate row)) rows in
  let since = Relation.cardinal relation in
  let nulls_before = Value.null_counter () in
  (* Holes stay on the wire and become marked nulls only here, after
     duplicate suppression: that is what lets the importer see that an
     incoming tuple is subsumed by one it already has, and hence what
     makes cyclic rule systems reach a fix-point. *)
  let[@tail_mod_cons] rec insert = function
    | [] -> []
    | row :: rest ->
        let row = Row.instantiate_holes ~rule:rule_id row in
        if Relation.insert_row relation row then row :: insert rest else insert rest
  in
  let fresh = insert incoming_fresh in
  let nulls_created = Value.null_counter () - nulls_before in
  let suppressed = List.length rows - List.length fresh in
  { since; fresh; suppressed; nulls_created }

let user_answers db q = Eval.answer_rows (Eval.of_database db) q
