module Schema = Codb_relalg.Schema
module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value

type node_decl = {
  node_name : string;
  relations : Schema.t list;
  facts : (string * Tuple.t) list;
  mediator : bool;
  constraints : Query.t list;
}

type rule_decl = {
  rule_id : string;
  importer : string;
  source : string;
  rule_query : Query.t;
}

type t = { nodes : node_decl list; rules : rule_decl list }

let node cfg name = List.find_opt (fun n -> String.equal n.node_name name) cfg.nodes

let rules_importing_at cfg name =
  List.filter (fun r -> String.equal r.importer name) cfg.rules

let rules_sourced_at cfg name =
  List.filter (fun r -> String.equal r.source name) cfg.rules

let acquaintances cfg name =
  let add acc peer = if List.mem peer acc || String.equal peer name then acc else peer :: acc in
  let step acc r =
    if String.equal r.importer name then add acc r.source
    else if String.equal r.source name then add acc r.importer
    else acc
  in
  List.rev (List.fold_left step [] cfg.rules)

let empty = { nodes = []; rules = [] }

let merge c1 c2 = { nodes = c1.nodes @ c2.nodes; rules = c1.rules @ c2.rules }

let find_schema decl rel =
  List.find_opt (fun s -> String.equal s.Schema.rel_name rel) decl.relations

let duplicates names =
  let sorted = List.sort String.compare names in
  let rec loop acc = function
    | a :: (b :: _ as rest) ->
        if String.equal a b && not (List.mem a acc) then loop (a :: acc) rest
        else loop acc rest
    | [ _ ] | [] -> acc
  in
  loop [] sorted

let check_atom_against decl ~where ~who errors atom =
  match find_schema decl atom.Atom.rel with
  | None ->
      Printf.sprintf "%s: relation %s not in schema of %s" where atom.Atom.rel who
      :: errors
  | Some s ->
      if Atom.arity atom <> Schema.arity s then
        Printf.sprintf "%s: %s expects arity %d, got %d" where atom.Atom.rel
          (Schema.arity s) (Atom.arity atom)
        :: errors
      else errors

(* An atom's arguments paired with the columns they fill; empty when
   the relation is unknown or the arity is wrong (reported
   separately). *)
let typed_columns decl atom =
  match find_schema decl atom.Atom.rel with
  | Some s when Schema.arity s = Atom.arity atom ->
      List.map2 (fun term a -> (term, s, a)) atom.Atom.args s.Schema.attrs
  | Some _ | None -> []

(* A head variable must fill a column of the type its body columns
   have, and a head constant must inhabit its column's type, or the
   importer's insert would reject the derived tuple mid-update.
   Existential head variables have no body column to disagree with. *)
let check_head_types ~where ~imp ~src errors q =
  let body = List.concat_map (typed_columns src) q.Query.body in
  let column s a =
    Printf.sprintf "%s.%s (%s)" s.Schema.rel_name a.Schema.attr_name
      (Value.string_of_ty a.Schema.attr_ty)
  in
  List.fold_left
    (fun errors (term, s, a) ->
      match term with
      | Term.Var x -> (
          match
            List.find_opt
              (fun (t, _, b) -> Term.equal t term && b.Schema.attr_ty <> a.Schema.attr_ty)
              body
          with
          | Some (_, bs, b) ->
              Printf.sprintf "%s: variable %s fills head column %s from body column %s" where
                x (column s a) (column bs b)
              :: errors
          | None -> errors)
      | Term.Cst v ->
          if Value.conforms a.Schema.attr_ty v then errors
          else
            Printf.sprintf "%s: head constant %s does not conform to %s" where
              (Value.to_string v) (column s a)
            :: errors)
    errors
    (typed_columns imp q.Query.head)

let validate cfg =
  (* rules look their endpoints up by name: index the nodes once rather
     than scanning the node list per rule (first declaration wins, as
     in [node]) *)
  let nodes = Hashtbl.create (List.length cfg.nodes) in
  List.iter
    (fun n -> if not (Hashtbl.mem nodes n.node_name) then Hashtbl.add nodes n.node_name n)
    cfg.nodes;
  let errors = [] in
  let errors =
    List.fold_left
      (fun errors dup -> Printf.sprintf "duplicate node %s" dup :: errors)
      errors
      (duplicates (List.map (fun n -> n.node_name) cfg.nodes))
  in
  let errors =
    List.fold_left
      (fun errors dup -> Printf.sprintf "duplicate rule %s" dup :: errors)
      errors
      (duplicates (List.map (fun r -> r.rule_id) cfg.rules))
  in
  let check_node errors decl =
    let errors =
      List.fold_left
        (fun errors dup ->
          Printf.sprintf "node %s: duplicate relation %s" decl.node_name dup :: errors)
        errors
        (duplicates (List.map (fun s -> s.Schema.rel_name) decl.relations))
    in
    let check_fact errors (rel, tuple) =
      match find_schema decl rel with
      | None ->
          Printf.sprintf "node %s: fact for unknown relation %s" decl.node_name rel
          :: errors
      | Some s ->
          if Schema.conforms s tuple then errors
          else
            Printf.sprintf "node %s: fact %s does not conform to %s" decl.node_name
              (Tuple.to_string tuple) (Schema.to_string s)
            :: errors
    in
    let errors = List.fold_left check_fact errors decl.facts in
    let check_constraint errors q =
      let errors =
        match Query.well_formed ~allow_existential_head:true q with
        | Ok () -> errors
        | Error reason ->
            Printf.sprintf "node %s: ill-formed constraint (%s)" decl.node_name reason
            :: errors
      in
      List.fold_left
        (check_atom_against decl
           ~where:(Printf.sprintf "node %s constraint" decl.node_name)
           ~who:decl.node_name)
        errors q.Query.body
    in
    List.fold_left check_constraint errors decl.constraints
  in
  let errors = List.fold_left check_node errors cfg.nodes in
  let check_rule errors r =
    let where = Printf.sprintf "rule %s" r.rule_id in
    match (Hashtbl.find_opt nodes r.importer, Hashtbl.find_opt nodes r.source) with
    | None, _ -> Printf.sprintf "%s: unknown importer node %s" where r.importer :: errors
    | _, None -> Printf.sprintf "%s: unknown source node %s" where r.source :: errors
    | Some imp, Some src ->
        let errors =
          if String.equal r.importer r.source then
            Printf.sprintf "%s: importer and source are the same node" where :: errors
          else errors
        in
        let errors =
          match Query.well_formed ~allow_existential_head:true r.rule_query with
          | Ok () -> errors
          | Error reason -> Printf.sprintf "%s: ill-formed (%s)" where reason :: errors
        in
        let errors =
          check_atom_against imp ~where:(where ^ " head") ~who:r.importer errors
            r.rule_query.Query.head
        in
        let errors =
          List.fold_left
            (check_atom_against src ~where:(where ^ " body") ~who:r.source)
            errors r.rule_query.Query.body
        in
        check_head_types ~where ~imp ~src errors r.rule_query
  in
  let errors = List.fold_left check_rule errors cfg.rules in
  match errors with [] -> Ok () | _ -> Error (List.rev errors)
