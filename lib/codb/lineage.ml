module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Row = Codb_relalg.Row

type import = { li_rule : string; li_hops : int; li_at : float }

type origin = Base | Imported of import

type window = {
  w_since : int;
  w_upto : int;
  w_import : import;
  w_update : Ids.update_id option;
}

(* Per relation, its windows newest first.  A node has a few
   relations, and one that never imported holds no entry. *)
type rel_windows = { rel : string; mutable newest : window list }

type t = { mutable rels : rel_windows list }

let create () = { rels = [] }

let find t rel = List.find_opt (fun r -> String.equal r.rel rel) t.rels

let newest_first t ~rel = match find t rel with Some r -> r.newest | None -> []

let record t ~rel ?update ~since ~upto import =
  if since < upto then begin
    let w = { w_since = since; w_upto = upto; w_import = import; w_update = update } in
    match find t rel with
    | Some r -> r.newest <- w :: r.newest
    | None -> t.rels <- { rel; newest = [ w ] } :: t.rels
  end

let windows t ~rel = List.rev (newest_first t ~rel)

(* The windows lie in row order, newest last; the newest-first walk
   stops at the first one that ends at or below [from]. *)
let hop_windows t ~rel ~update ~from ~upto =
  let mine w =
    match w.w_update with Some u -> Ids.equal_update u update | None -> false
  in
  let rec imported acc = function
    | w :: older when w.w_upto > from ->
        let acc =
          if w.w_since < upto && mine w then
            (max w.w_since from, min w.w_upto upto, w.w_import.li_hops) :: acc
          else acc
        in
        imported acc older
    | _ -> acc
  in
  let push acc (a, b, h) =
    match acc with
    | (a', b', h') :: rest when h' = h && b' = a -> (a', b, h) :: rest
    | _ -> (a, b, h) :: acc
  in
  let rec fill acc pos = function
    | (a, b, h) :: rest -> fill (push (if pos < a then push acc (pos, a, 0) else acc) (a, b, h)) b rest
    | [] -> List.rev (if pos < upto then push acc (pos, upto, 0) else acc)
  in
  if from >= upto then [] else fill [] from (imported [] (newest_first t ~rel))

let clear t = t.rels <- []

let origin_of ~store t ~rel tuple =
  match Database.relation_opt store rel with
  | None -> None
  | Some relation ->
      Option.map
        (fun id ->
          match List.find_opt (fun w -> w.w_since <= id) (newest_first t ~rel) with
          | Some w when id < w.w_upto -> Imported w.w_import
          | Some _ | None -> Base)
        (Relation.find_row relation (Row.of_tuple tuple))

let pp_origin ppf = function
  | Base -> Fmt.string ppf "base fact (local)"
  | Imported i -> Fmt.pf ppf "via rule %s, %d hop(s), at %.4fs" i.li_rule i.li_hops i.li_at
