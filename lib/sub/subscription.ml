module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Row = Codb_relalg.Row

type delta = {
  d_adds : Row.t list;
  d_retracts : Row.t list;
  d_tag : string;
}

let delta_is_empty d = d.d_adds = [] && d.d_retracts = []

type t = {
  sub_id : string;
  query : Query.t;
  rels : string list;
  source : Eval.source;
  answers : unit Row.Table.t;
  rule : Eval.prepared;  (* projects into [answers] *)
}

let create ~sub_id ~source query =
  match Query.well_formed ~allow_existential_head:false query with
  | Error e -> Error e
  | Ok () ->
      let answers = Row.Table.create 64 in
      Ok
        {
          sub_id;
          query;
          rels = Query.body_relations query;
          source;
          answers;
          rule = Eval.prepare ~into:answers source query;
        }

let id t = t.sub_id

let query t = t.query

let reads t rel = List.exists (String.equal rel) t.rels

let sorted table = List.sort Row.compare (Row.Table.fold (fun row () acc -> row :: acc) table [])

let answers t = sorted t.answers

let answer_count t = Row.Table.length t.answers

(* Incremental maintenance over a monotone store never retracts. *)
let apply_delta t ~delta_rel ~since ~upto ~tag =
  { d_adds = Eval.run ~delta_rel ~since ~upto t.rule; d_retracts = []; d_tag = tag }

let refresh t ~tag =
  let current = Row.Table.create 64 in
  let rows = Eval.heads ~into:current t.source t.query in
  let adds = List.filter (fun row -> not (Row.Table.mem t.answers row)) rows in
  let retracts = List.filter (fun row -> not (Row.Table.mem current row)) (sorted t.answers) in
  Row.Table.reset t.answers;
  List.iter (fun row -> Row.Table.replace t.answers row ()) rows;
  { d_adds = adds; d_retracts = retracts; d_tag = tag }
