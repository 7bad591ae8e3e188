module Value = Codb_relalg.Value

type operand = Col of int | Const of Value.t

type pred = { p_left : operand; p_op : Query.comparison_op; p_right : operand }

type t = Any | One_of of pred list list

let any = Any

let is_any = function Any -> true | One_of _ -> false

let pred_count = function
  | Any -> 0
  | One_of alts -> List.fold_left (fun acc conj -> acc + List.length conj) 0 alts

let compare_operand o1 o2 =
  match (o1, o2) with
  | Col i, Col j -> Int.compare i j
  | Const a, Const b -> Value.compare a b
  | Col _, Const _ -> -1
  | Const _, Col _ -> 1

let compare_pred p1 p2 =
  let c = Stdlib.compare p1.p_op p2.p_op in
  if c <> 0 then c
  else
    let c = compare_operand p1.p_left p2.p_left in
    if c <> 0 then c else compare_operand p1.p_right p2.p_right

let equal_pred p1 p2 = compare_pred p1 p2 = 0

let rec dedup_sorted eq = function
  | a :: (b :: _ as rest) when eq a b -> dedup_sorted eq rest
  | a :: rest -> a :: dedup_sorted eq rest
  | [] -> []

let normalize = function
  | Any -> Any
  | One_of alts ->
      let alts =
        List.map (fun conj -> dedup_sorted equal_pred (List.sort compare_pred conj)) alts
      in
      (* an unconstrained alternative accepts everything *)
      if List.exists (fun conj -> conj = []) alts then Any
      else
        One_of
          (dedup_sorted
             (fun a b -> List.compare compare_pred a b = 0)
             (List.sort (List.compare compare_pred) alts))

let compare c1 c2 =
  match (normalize c1, normalize c2) with
  | Any, Any -> 0
  | Any, One_of _ -> -1
  | One_of _, Any -> 1
  | One_of a, One_of b -> List.compare (List.compare compare_pred) a b

let equal c1 c2 = compare c1 c2 = 0

(* --- derivation from a requesting query ----------------------------- *)

(* The constraint one atom imposes on the relation it reads: constants
   at their positions, equalities between repeated-variable positions,
   and the query's comparisons when every variable maps through this
   atom (first occurrence wins; the repeated-occurrence equalities keep
   the other positions consistent). *)
let conj_of_atom (q : Query.t) (atom : Atom.t) =
  let args = Array.of_list atom.Atom.args in
  let first_col = Hashtbl.create 8 in
  let preds = ref [] in
  Array.iteri
    (fun i term ->
      match term with
      | Term.Cst c -> preds := { p_left = Col i; p_op = Query.Eq; p_right = Const c } :: !preds
      | Term.Var v -> (
          match Hashtbl.find_opt first_col v with
          | None -> Hashtbl.add first_col v i
          | Some j ->
              preds := { p_left = Col j; p_op = Query.Eq; p_right = Col i } :: !preds))
    args;
  let operand_of_term = function
    | Term.Cst c -> Some (Const c)
    | Term.Var v -> Option.map (fun i -> Col i) (Hashtbl.find_opt first_col v)
  in
  List.iter
    (fun (c : Query.comparison) ->
      match (operand_of_term c.Query.left, operand_of_term c.Query.right) with
      (* constant-constant predicates constrain no column *)
      | Some (Const _), Some (Const _) -> ()
      | Some l, Some r -> preds := { p_left = l; p_op = c.Query.op; p_right = r } :: !preds
      | None, _ | _, None -> ())
    q.Query.comparisons;
  List.rev !preds

(* Cap on the predicates one sub-request may carry: a larger constraint
   degrades to [Any], so pushdown never inflates request traffic
   unboundedly. *)
let max_preds = 16

let of_query (q : Query.t) ~rel =
  match List.filter (fun a -> String.equal a.Atom.rel rel) q.Query.body with
  | [] -> Any
  | atoms -> (
      let constraint_ = normalize (One_of (List.map (conj_of_atom q) atoms)) in
      match constraint_ with
      | Any -> Any
      | One_of _ as c -> if pred_count c > max_preds then Any else c)

(* --- requester-faithful filtering ----------------------------------- *)

(* [value_at arity cell] reads an operand off a tuple of [arity]
   columns whose [cell i] is column [i]'s value. *)
let value_at arity cell = function
  | Const v -> Some v
  | Col i -> if i >= 0 && i < arity then Some (cell i) else None

let pred_holds arity cell p =
  match (value_at arity cell p.p_left, value_at arity cell p.p_right) with
  | Some v1, Some v2 -> Query.eval_comparison_op p.p_op v1 v2
  (* malformed (arity mismatch): keep the tuple, never drop data *)
  | None, _ | _, None -> true

let holds c arity cell =
  match c with
  | Any -> true
  | One_of alts -> List.exists (List.for_all (pred_holds arity cell)) alts

let matches c (row : Codb_relalg.Row.t) =
  holds c (Array.length row) (fun i -> Codb_relalg.Intern.unpack row.(i))

(* --- folding a head constraint into the rule body ------------------- *)

(* Map a column operand through the rule head.  [`Pushed t]: the
   position maps onto a body term, so the predicate can fold into the
   body.  [`Exist v]: the position carries an existential variable — on
   the wire it is a hole, so every comparison against it is already
   decided by the filter semantics (a fresh null equals only itself).
   [`Opaque]: out of range; only the output filter can judge it. *)
let term_of_operand ~head_args ~body_vs = function
  | Const v -> `Pushed (Term.Cst v)
  | Col i ->
      if i < 0 || i >= Array.length head_args then `Opaque
      else (
        match head_args.(i) with
        | Term.Cst c -> `Pushed (Term.Cst c)
        | Term.Var v -> if List.mem v body_vs then `Pushed (Term.Var v) else `Exist v)

let subst_term bindings = function
  | Term.Cst _ as t -> t
  | Term.Var v as t -> (
      match Subst.find v bindings with Some c -> Term.Cst c | None -> t)

let subst_atom bindings (a : Atom.t) =
  Atom.make a.Atom.rel (List.map (subst_term bindings) a.Atom.args)

let subst_comparison bindings (c : Query.comparison) =
  {
    c with
    Query.left = subst_term bindings c.Query.left;
    right = subst_term bindings c.Query.right;
  }

exception Contradiction

let specialize_rule c (rq : Query.t) =
  match normalize c with
  | Any -> `Unchanged
  | One_of [] -> `Unsatisfiable
  (* disjunctions do not fold into one conjunctive body; the output
     filter alone enforces them *)
  | One_of (_ :: _ :: _) -> `Unchanged
  | One_of [ conj ] -> (
      let head_args = Array.of_list rq.Query.head.Atom.args in
      let body_vs = Query.body_vars rq in
      try
        let bindings = ref Subst.empty in
        let extra = ref [] in
        let bind v value =
          match Subst.find v !bindings with
          | Some value' -> if not (Value.equal value value') then raise Contradiction
          | None -> bindings := Subst.bind v value !bindings
        in
        List.iter
          (fun p ->
            match
              ( term_of_operand ~head_args ~body_vs p.p_left,
                term_of_operand ~head_args ~body_vs p.p_right )
            with
            | `Opaque, _ | _, `Opaque -> () (* only the output filter can judge *)
            | `Exist a, `Exist b -> (
                (* two holes: the same variable co-refers (one fresh
                   null), distinct variables mint distinct nulls *)
                match p.p_op with
                | Query.Eq -> if not (String.equal a b) then raise Contradiction
                | Query.Neq -> if String.equal a b then raise Contradiction
                | Query.Lt | Query.Le | Query.Gt | Query.Ge -> raise Contradiction)
            | `Exist _, `Pushed _ | `Pushed _, `Exist _ -> (
                (* a fresh null never equals, precedes or follows any
                   body value or constant *)
                match p.p_op with
                | Query.Neq -> ()
                | Query.Eq | Query.Lt | Query.Le | Query.Gt | Query.Ge ->
                    raise Contradiction)
            | `Pushed (Term.Cst a), `Pushed (Term.Cst b) ->
                if not (Query.eval_comparison_op p.p_op a b) then raise Contradiction
            | `Pushed (Term.Var v), `Pushed (Term.Cst value) when p.p_op = Query.Eq ->
                bind v value
            | `Pushed (Term.Cst value), `Pushed (Term.Var v) when p.p_op = Query.Eq ->
                bind v value
            | `Pushed (Term.Var a), `Pushed (Term.Var b)
              when p.p_op = Query.Eq && String.equal a b ->
                ()
            | `Pushed left, `Pushed right ->
                extra := { Query.left; op = p.p_op; right } :: !extra)
          conj;
        (* resolve the derived comparisons under the bindings; fully
           ground ones decide now *)
        let residual =
          List.filter_map
            (fun cmp ->
              match subst_comparison !bindings cmp with
              | { Query.left = Term.Cst a; op; right = Term.Cst b } ->
                  if Query.eval_comparison_op op a b then None else raise Contradiction
              | cmp -> Some cmp)
            (List.rev !extra)
        in
        if Subst.equal !bindings Subst.empty && residual = [] then `Unchanged
        else begin
          let bindings = !bindings in
          let comparisons =
            List.map (subst_comparison bindings) rq.Query.comparisons
          in
          let comparison_equal c1 c2 =
            c1.Query.op = c2.Query.op
            && Term.equal c1.Query.left c2.Query.left
            && Term.equal c1.Query.right c2.Query.right
          in
          let fresh =
            List.filter
              (fun cmp -> not (List.exists (comparison_equal cmp) comparisons))
              residual
          in
          `Specialized
            (Query.make
               ~head:(subst_atom bindings rq.Query.head)
               ~body:(List.map (subst_atom bindings) rq.Query.body)
               ~comparisons:(comparisons @ fresh) ())
        end
      with Contradiction -> `Unsatisfiable)

(* --- printing and sizing -------------------------------------------- *)

let pp_operand ppf = function
  | Col i -> Fmt.pf ppf "$%d" i
  | Const v -> Value.pp ppf v

let pp_pred ppf p =
  Fmt.pf ppf "%a %s %a" pp_operand p.p_left (Query.string_of_op p.p_op) pp_operand
    p.p_right

let pp ppf = function
  | Any -> Fmt.string ppf "*"
  | One_of [] -> Fmt.string ppf "none"
  | One_of alts ->
      Fmt.pf ppf "%a"
        Fmt.(list ~sep:(any " | ") (fun ppf conj -> pf ppf "[%a]" (list ~sep:(any ", ") pp_pred) conj))
        alts

let to_string c = Fmt.str "%a" pp c
