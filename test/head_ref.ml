(* The boxed head projection: one boxed tuple per substitution, folded
   into an ordered tuple set.  The packed head projector in [Eval] must
   return exactly this set. *)

open Codb_cq
module Tuple_set = Codb_relalg.Relation.Tuple_set
module Value = Codb_relalg.Value

let head_tuples q substs =
  let existentials = Query.existential_head_vars q in
  let hole_index v =
    let rec loop i = function
      | [] -> None
      | x :: rest -> if String.equal x v then Some i else loop (i + 1) rest
    in
    loop 0 existentials
  in
  let term_value subst = function
    | Term.Cst c -> Some c
    | Term.Var v -> (
        match Subst.find v subst with
        | Some value -> Some value
        | None -> (
            match hole_index v with
            | Some i -> Some (Value.Hole i)
            | None -> None))
  in
  let project acc subst =
    let rec build acc_vals = function
      | [] -> Some (Array.of_list (List.rev acc_vals))
      | t :: rest -> (
          match term_value subst t with
          | Some v -> build (v :: acc_vals) rest
          | None -> None)
    in
    match build [] q.Query.head.Atom.args with
    | Some tuple -> Tuple_set.add tuple acc
    | None -> acc
  in
  Tuple_set.elements (List.fold_left project Tuple_set.empty substs)
