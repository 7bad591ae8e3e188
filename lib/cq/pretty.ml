module Value = Codb_relalg.Value
module Schema = Codb_relalg.Schema

let literal ppf = function
  | Value.Int i -> Fmt.int ppf i
  | Value.Float f ->
      (* Keep a dot so the token re-lexes as a float. *)
      let s = Printf.sprintf "%.12g" f in
      if String.contains s '.' || String.contains s 'e' then Fmt.string ppf s
      else Fmt.pf ppf "%s.0" s
  | Value.Str s ->
      let buf = Buffer.create (String.length s + 2) in
      String.iter
        (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
        s;
      Fmt.pf ppf "\"%s\"" (Buffer.contents buf)
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Null _ -> invalid_arg "Pretty.literal: marked nulls have no concrete syntax"
  | Value.Hole _ -> invalid_arg "Pretty.literal: holes have no concrete syntax"

let term ppf = function
  | Term.Var v -> Fmt.string ppf v
  | Term.Cst c -> literal ppf c

let atom ppf a =
  Fmt.pf ppf "%s(%a)" a.Atom.rel Fmt.(list ~sep:(any ", ") term) a.Atom.args

let comparison ppf c =
  Fmt.pf ppf "%a %s %a" term c.Query.left (Query.string_of_op c.Query.op) term
    c.Query.right

let body_items ppf q =
  let items =
    List.map (fun a -> `A a) q.Query.body @ List.map (fun c -> `C c) q.Query.comparisons
  in
  let pp_item ppf = function `A a -> atom ppf a | `C c -> comparison ppf c in
  Fmt.(list ~sep:(any ", ") pp_item) ppf items

let query ppf q = Fmt.pf ppf "%a <- %a" atom q.Query.head body_items q

let pp_attr ppf a =
  Fmt.pf ppf "%s: %s" a.Schema.attr_name (Value.string_of_ty a.Schema.attr_ty)

let pp_schema ppf s =
  Fmt.pf ppf "relation %s(%a);" s.Schema.rel_name
    Fmt.(list ~sep:(any ", ") pp_attr)
    s.Schema.attrs

let pp_fact ppf (rel, tuple) =
  Fmt.pf ppf "fact %s(%a);" rel
    Fmt.(array ~sep:(any ", ") literal)
    tuple

let pp_constraint ppf q = Fmt.pf ppf "constraint %a;" body_items q

let node_decl ppf n =
  let mediator = if n.Config.mediator then " mediator" else "" in
  Fmt.pf ppf "@[<v 2>node %s%s {%a%a%a@]@,}" n.Config.node_name mediator
    Fmt.(list ~sep:nop (fun ppf s -> Fmt.pf ppf "@,%a" pp_schema s))
    n.Config.relations
    Fmt.(list ~sep:nop (fun ppf f -> Fmt.pf ppf "@,%a" pp_fact f))
    n.Config.facts
    Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@,%a" pp_constraint c))
    n.Config.constraints

let rule_decl ppf r =
  Fmt.pf ppf "rule %s at %s: %a <- %s: %a;" r.Config.rule_id r.Config.importer atom
    r.Config.rule_query.Query.head r.Config.source body_items r.Config.rule_query

let config ppf cfg =
  Fmt.pf ppf "@[<v>%a%a%a@]"
    Fmt.(list ~sep:cut node_decl)
    cfg.Config.nodes
    Fmt.(if cfg.Config.nodes <> [] && cfg.Config.rules <> [] then cut else nop)
    ()
    Fmt.(list ~sep:cut rule_decl)
    cfg.Config.rules

let config_to_string cfg = Fmt.str "%a@." config cfg
