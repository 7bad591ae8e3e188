type t = {
  order : string list;  (* declaration order, for stable printing *)
  rels : (string, Relation.t) Hashtbl.t;
}

let create schemas =
  let rels = Hashtbl.create 16 in
  let add_schema s =
    let name = s.Schema.rel_name in
    if Hashtbl.mem rels name then
      invalid_arg (Printf.sprintf "Database.create: duplicate relation %s" name);
    Hashtbl.add rels name (Relation.create s)
  in
  List.iter add_schema schemas;
  { order = List.map (fun s -> s.Schema.rel_name) schemas; rels }

let relation db name =
  match Hashtbl.find_opt db.rels name with
  | Some r -> r
  | None -> raise Not_found

let relation_opt db name = Hashtbl.find_opt db.rels name

let has_relation db name = Hashtbl.mem db.rels name

let rel_names db = db.order

let schema db = List.map (fun name -> Relation.schema (relation db name)) db.order

let insert db name t = Relation.insert (relation db name) t

let insert_all db name ts = Relation.insert_all (relation db name) ts

let tuples db name = Relation.to_list (relation db name)

let cardinal db =
  List.fold_left (fun acc name -> acc + Relation.cardinal (relation db name)) 0 db.order

let copy db =
  let rels = Hashtbl.create 16 in
  List.iter (fun name -> Hashtbl.add rels name (Relation.copy (relation db name))) db.order;
  { order = db.order; rels }

let equal_contents db1 db2 =
  let names1 = List.sort String.compare db1.order
  and names2 = List.sort String.compare db2.order in
  List.equal String.equal names1 names2
  && List.for_all
       (fun name -> Relation.equal_contents (relation db1 name) (relation db2 name))
       names1

(* [tuples] come sorted, which makes the digest independent of
   insertion order and of intern-slot numbering ({!Tuple.digest_fold}). *)
let digest db =
  List.fold_left
    (fun h name -> Tuple.digest_fold (Tuple.digest_value h (Value.Str name)) (tuples db name))
    0
    (List.sort String.compare db.order)

let pp ppf db =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(list ~sep:cut Relation.pp)
    (List.map (relation db) db.order)
