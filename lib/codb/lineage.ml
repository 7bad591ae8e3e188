module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Row = Codb_relalg.Row

type import = { li_rule : string; li_hops : int; li_at : float }

type origin = Base | Imported of import list

(* Per relation, the imports of each packed row, newest first.  A
   node has a few relations, and one that never imported allocates no
   table. *)
type t = { mutable rels : (string * import list Row.Table.t) list }

let create () = { rels = [] }

let record_import t ~rel row import =
  let rows =
    match List.assoc_opt rel t.rels with
    | Some rows -> rows
    | None ->
        let rows = Row.Table.create 64 in
        t.rels <- (rel, rows) :: t.rels;
        rows
  in
  let earlier = Option.value ~default:[] (Row.Table.find_opt rows row) in
  Row.Table.replace rows row (import :: earlier)

let imported t ~rel =
  match List.assoc_opt rel t.rels with
  | None -> fun _ -> false
  | Some rows -> Row.Table.mem rows

let imports t ~rel tuple =
  match List.assoc_opt rel t.rels with
  | None -> []
  | Some rows -> (
      match Row.Table.find_opt rows (Row.of_tuple tuple) with
      | Some newest_first -> List.rev newest_first
      | None -> [])

let all t =
  let entries =
    List.fold_left
      (fun acc (rel, rows) ->
        Row.Table.fold
          (fun row newest_first acc ->
            ((rel, row), List.rev newest_first) :: acc)
          rows acc)
      [] t.rels
  in
  List.sort
    (fun ((r1, t1), _) ((r2, t2), _) ->
      let c = String.compare r1 r2 in
      if c <> 0 then c else Row.compare t1 t2)
    entries

let clear t = t.rels <- []

let origin_of ~store t ~rel tuple =
  match Database.relation_opt store rel with
  | None -> None
  | Some relation ->
      if not (Relation.mem relation tuple) then None
      else begin
        match imports t ~rel tuple with
        | [] -> Some Base
        | routes -> Some (Imported routes)
      end

let pp_import ppf i =
  Fmt.pf ppf "via rule %s, %d hop(s), at %.4fs" i.li_rule i.li_hops i.li_at

let pp_origin ppf = function
  | Base -> Fmt.string ppf "base fact (local)"
  | Imported routes -> Fmt.(list ~sep:(any "; ") pp_import) ppf routes
