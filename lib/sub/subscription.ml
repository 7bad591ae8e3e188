module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Specialize = Codb_cq.Specialize
module Row = Codb_relalg.Row

type delta = {
  d_adds : Row.t list;
  d_retracts : Row.t list;
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
  mutable answers : Row.Set.t;
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
          answers = Row.Set.empty;
          deltas_delivered = 0;
        }

let id t = t.sub_id

let query t = t.query

let reads t rel = List.exists (String.equal rel) t.rels

let answers t = Row.Set.elements t.answers

let answer_count t = Row.Set.cardinal t.answers

let deltas_delivered t = t.deltas_delivered

let note_delivered t = t.deltas_delivered <- t.deltas_delivered + 1

let constraint_for t rel = List.assoc_opt rel t.constraints

let prefilter t ~rel rows =
  match List.assoc_opt rel t.constraints with
  | None -> (rows, 0)
  | Some c ->
      let kept = List.filter (Specialize.matches c) rows in
      (kept, List.length rows - List.length kept)

(* Fold freshly derived head rows (distinct and sorted) into the
   answer set; only the genuinely new ones become the delta's adds.
   Incremental maintenance over a monotone store never retracts. *)
let absorb t heads ~tag =
  let adds = List.filter (fun row -> not (Row.Set.mem row t.answers)) heads in
  t.answers <- List.fold_left (fun s row -> Row.Set.add row s) t.answers adds;
  { d_adds = adds; d_retracts = []; d_tag = tag }

let apply_delta t ~source ~delta_rel ~since ~delta ~tag =
  (* [since] stays the unfiltered delta's watermark: a dropped tuple
     matches no atom over [delta_rel], so it is harmless past it, while
     a watermark of the kept rows alone would overlap them *)
  let delta, dropped = prefilter t ~rel:delta_rel delta in
  let d =
    if delta = [] then { d_adds = []; d_retracts = []; d_tag = tag }
    else
      absorb t (Eval.delta_heads source ~delta_rel ~since ~delta t.query) ~tag
  in
  (d, dropped)

let refresh t ~source ~tag =
  let current = Row.Set.of_list (Eval.answer_rows source t.query) in
  let adds = Row.Set.elements (Row.Set.diff current t.answers) in
  let retracts = Row.Set.elements (Row.Set.diff t.answers current) in
  t.answers <- current;
  { d_adds = adds; d_retracts = retracts; d_tag = tag }
