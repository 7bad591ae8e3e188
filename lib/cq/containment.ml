module Value = Codb_relalg.Value
module Intern = Codb_relalg.Intern

(* Frozen constants are tagged strings; the tag cannot clash with user
   data because user string constants are never compared against them
   (they only live in the canonical database built here). *)
let freeze_var v = Value.Str ("$frozen$" ^ v)

let freeze_term = function
  | Term.Cst c -> c
  | Term.Var v -> freeze_var v

let frozen_atom a = Array.of_list (List.map freeze_term a.Atom.args)

let frozen_source q =
  let table = Hashtbl.create 8 in
  let add a =
    let existing = Option.value ~default:[] (Hashtbl.find_opt table a.Atom.rel) in
    Hashtbl.replace table a.Atom.rel (Array.map Intern.pack (frozen_atom a) :: existing)
  in
  List.iter add q.Query.body;
  fun rel ->
    Eval.rows_of_list (Option.value ~default:[] (Hashtbl.find_opt table rel))

let match_atom subst atom tuple =
  let rec loop i subst = function
    | [] -> Some subst
    | Term.Cst c :: rest ->
        if Value.equal c tuple.(i) then loop (i + 1) subst rest else None
    | Term.Var v :: rest -> (
        match Subst.find v subst with
        | Some bound ->
            if Value.equal bound tuple.(i) then loop (i + 1) subst rest else None
        | None -> loop (i + 1) (Subst.bind v tuple.(i) subst) rest)
  in
  if List.length atom.Atom.args <> Array.length tuple then None
  else loop 0 subst atom.Atom.args

let is_frozen = function
  | Value.Str s -> String.length s > 8 && String.sub s 0 8 = "$frozen$"
  | Value.Int _ | Value.Float _ | Value.Bool _ | Value.Null _ | Value.Hole _ -> false

(* A comparison of [from], under the candidate homomorphism, is
   entailed if it is ground over real (non-frozen) values and true, or
   if it coincides syntactically with a frozen comparison of [into]. *)
let comparison_entailed ~into_cmps subst c =
  match (Subst.apply_term subst c.Query.left, Subst.apply_term subst c.Query.right) with
  | Some v1, Some v2 ->
      if not (is_frozen v1 || is_frozen v2) then
        Query.eval_comparison_op c.Query.op v1 v2
      else
        let matches c' =
          c'.Query.op = c.Query.op
          && Value.equal (freeze_term c'.Query.left) v1
          && Value.equal (freeze_term c'.Query.right) v2
        in
        List.exists matches into_cmps
  | _ -> false

let hom_exists ~from ~into =
  let source = frozen_source into in
  let target_head = frozen_atom into.Query.head in
  if Atom.arity from.Query.head <> Array.length target_head then false
  else if not (String.equal from.Query.head.Atom.rel into.Query.head.Atom.rel) then false
  else
    let body_only = { from with Query.comparisons = [] } in
    let accepts subst =
      match match_atom subst from.Query.head target_head with
      | None -> false
      | Some subst' ->
          List.for_all
            (comparison_entailed ~into_cmps:into.Query.comparisons subst')
            from.Query.comparisons
    in
    Eval.exists source body_only ~accept:accepts

let contained q1 q2 = hom_exists ~from:q2 ~into:q1

let equivalent q1 q2 = contained q1 q2 && contained q2 q1
