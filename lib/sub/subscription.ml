module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Apply = Codb_cq.Apply
module Specialize = Codb_cq.Specialize
module Tuple = Codb_relalg.Tuple
module Tuple_set = Codb_relalg.Relation.Tuple_set

type delta = {
  d_adds : Tuple.t list;
  d_retracts : Tuple.t list;
  d_tag : string;
}

let delta_is_empty d = d.d_adds = [] && d.d_retracts = []

let delta_tuples d = List.length d.d_adds + List.length d.d_retracts

let pp_delta ppf d =
  Fmt.pf ppf "[%s] +%d -%d" d.d_tag (List.length d.d_adds)
    (List.length d.d_retracts)

type t = {
  sub_id : string;
  query : Query.t;
  rels : string list;
  constraints : (string * Specialize.t) list;
  mutable answers : Tuple_set.t;
  mutable deltas_delivered : int;
}

let create ?(pushdown = false) ~sub_id query =
  match Query.well_formed ~allow_existential_head:false query with
  | Error e -> Error e
  | Ok () ->
      let rels = Query.body_relations query in
      let constraints =
        if pushdown then
          List.filter_map
            (fun rel ->
              let c = Specialize.of_query query ~rel in
              if Specialize.is_any c then None else Some (rel, c))
            rels
        else []
      in
      Ok
        {
          sub_id;
          query;
          rels;
          constraints;
          answers = Tuple_set.empty;
          deltas_delivered = 0;
        }

let id t = t.sub_id

let query t = t.query

let reads t rel = List.exists (String.equal rel) t.rels

let answers t = Tuple_set.elements t.answers

let answer_count t = Tuple_set.cardinal t.answers

let deltas_delivered t = t.deltas_delivered

let note_delivered t = t.deltas_delivered <- t.deltas_delivered + 1

let constraint_for t rel = List.assoc_opt rel t.constraints

let prefilter t ~rel tuples =
  match List.assoc_opt rel t.constraints with
  | None -> (tuples, 0)
  | Some c ->
      let kept = List.filter (Specialize.matches c) tuples in
      (kept, List.length tuples - List.length kept)

(* Fold freshly derived head tuples into the answer set; only the
   genuinely new ones become the delta's adds.  Incremental
   maintenance over a monotone store never retracts. *)
let absorb t heads ~tag =
  let adds =
    List.sort_uniq Tuple.compare
      (List.filter (fun tu -> not (Tuple_set.mem tu t.answers)) heads)
  in
  t.answers <- List.fold_left (fun s tu -> Tuple_set.add tu s) t.answers adds;
  { d_adds = adds; d_retracts = []; d_tag = tag }

let apply_delta t ~source ~delta_rel ~since ~delta ~tag =
  (* [since] stays the unfiltered delta's watermark: a dropped tuple
     matches no atom over [delta_rel], so it is harmless past it, while
     a watermark of the kept rows alone would overlap them *)
  let delta, dropped = prefilter t ~rel:delta_rel delta in
  let d =
    if delta = [] then { d_adds = []; d_retracts = []; d_tag = tag }
    else
      let substs = Eval.delta_answers source ~delta_rel ~since ~delta t.query in
      absorb t (Apply.head_tuples t.query substs) ~tag
  in
  (d, dropped)

let refresh t ~source ~tag =
  let current = Tuple_set.of_list (Eval.answer_tuples source t.query) in
  let adds = Tuple_set.elements (Tuple_set.diff current t.answers) in
  let retracts = Tuple_set.elements (Tuple_set.diff t.answers current) in
  t.answers <- current;
  { d_adds = adds; d_retracts = retracts; d_tag = tag }

let reevaluate t ~source ~tag =
  let current = Tuple_set.of_list (Eval.answer_tuples source t.query) in
  let retracts = Tuple_set.elements (Tuple_set.diff t.answers current) in
  t.answers <- current;
  { d_adds = Tuple_set.elements current; d_retracts = retracts; d_tag = tag }
