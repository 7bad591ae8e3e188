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
  let since = Relation.cardinal relation in
  let nulls_before = Value.null_counter () in
  (* A ground row goes straight to [insert_row], whose row index is the
     dedup.  A hole row is checked only against the rows below
     [since], the store as it stood before this batch: it is kept even
     when a ground row of the same batch would subsume it.  Its holes
     become marked nulls only after that check: that is what lets the
     importer see that an incoming tuple is subsumed by one it already
     has, and hence what makes cyclic rule systems reach a
     fix-point. *)
  let subsumption = opts.Options.use_subsumption_dedup in
  let[@tail_mod_cons] rec insert = function
    | [] -> []
    | row :: rest ->
        if Row.has_hole row then
          if subsumption && Relation.subsumed_row ~below:since relation row then insert rest
          else
            let row = Row.instantiate_holes ~rule:rule_id row in
            if Relation.insert_row relation row then row :: insert rest else insert rest
        else if Relation.insert_row relation row then row :: insert rest
        else insert rest
  in
  let fresh = insert rows in
  let nulls_created = Value.null_counter () - nulls_before in
  let suppressed = List.length rows - List.length fresh in
  { since; fresh; suppressed; nulls_created }

let user_answers db q = Eval.answer_rows (Eval.of_database db) q
