(* Cost-based join planning for conjunctive queries.

   The planner works on per-atom access-path summaries (size, index
   availability, per-column distinct-value estimates) supplied by the
   evaluator, so it has no dependency on any particular store.  It
   greedily picks the atom with the smallest estimated candidate count
   under the bindings accumulated so far, records the ground column
   set to probe, and pushes every comparison predicate to the earliest
   step after which it is fully bound. *)

type atom_info = {
  ai_atom : Atom.t;
  ai_size : int;
  ai_indexed : bool;
  ai_distinct : (int -> int) option;
}

type step = {
  st_pos : int;  (* position of the atom in the original body *)
  st_atom : Atom.t;
  st_probe : int list;  (* argument positions ground at this step *)
  st_est : float;  (* estimated candidates per incoming binding *)
  st_comparisons : Query.comparison list;  (* fully bound after this step *)
  st_ranges : (int * Query.comparison_op * Codb_relalg.Value.t) list;
      (* sargable order predicates oriented as [cell op const]: the
         variable first binds at this step, at the named argument
         position — the evaluator may fold them into chunk-level
         zone-map pruning of a scan *)
}

type t = {
  pl_steps : step list;
  pl_pre : Query.comparison list;  (* variable-free: checked once, up front *)
  pl_unbound : Query.comparison list;  (* never fully bound: query is empty *)
}

module Var_set = Set.Make (String)

(* Default selectivity of matching one already-ground column when the
   access path has no distinct-value statistics (pure tuple lists,
   e.g. deltas): a conventional 1/10 per bound column. *)
let default_selectivity = 0.1

let term_ground bound = function
  | Term.Cst _ -> true
  | Term.Var v -> Var_set.mem v bound

let ground_cols bound (atom : Atom.t) =
  let _, cols =
    List.fold_left
      (fun (i, acc) term ->
        (i + 1, if term_ground bound term then i :: acc else acc))
      (0, []) atom.Atom.args
  in
  List.rev cols

let estimate info bound =
  let cols = ground_cols bound info.ai_atom in
  let size = float_of_int info.ai_size in
  let shrink est col =
    match info.ai_distinct with
    | Some distinct ->
        let d = max 1 (distinct col) in
        est /. float_of_int d
    | None -> est *. default_selectivity
  in
  (cols, List.fold_left shrink size cols)

let comparison_variables (c : Query.comparison) =
  Term.vars [ c.Query.left; c.Query.right ]

let comparison_bound bound c =
  List.for_all (fun v -> Var_set.mem v bound) (comparison_variables c)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let make ?(max_probe_cols = max_int) infos comparisons =
  let pre, rest = List.partition (fun c -> comparison_variables c = []) comparisons in
  let rec pick bound pending acc = function
    | [] -> (List.rev acc, pending)
    | remaining ->
        let scored =
          List.map
            (fun (pos, info) ->
              let cols, est = estimate info bound in
              (pos, info, cols, est))
            remaining
        in
        let better (p1, i1, c1, e1) (p2, i2, c2, e2) =
          (* smaller estimate wins; tie-break on more ground columns,
             index availability, smaller relation, body order *)
          let cmp = Float.compare e1 e2 in
          if cmp <> 0 then cmp < 0
          else
            let cmp = Int.compare (List.length c2) (List.length c1) in
            if cmp <> 0 then cmp < 0
            else
              let cmp = Bool.compare i2.ai_indexed i1.ai_indexed in
              if cmp <> 0 then cmp < 0
              else
                let cmp = Int.compare i1.ai_size i2.ai_size in
                if cmp <> 0 then cmp < 0 else p1 < p2
        in
        let best =
          match scored with
          | first :: others ->
              List.fold_left (fun b c -> if better c b then c else b) first others
          (* unreachable: [remaining] is non-empty here, and [scored] maps it *)
          | [] -> assert false
        in
        let pos, info, cols, est = best in
        let before = bound in
        let bound =
          List.fold_left (fun b v -> Var_set.add v b) bound (Atom.vars info.ai_atom)
        in
        let now_bound, pending = List.partition (comparison_bound bound) pending in
        (* Order predicates between a variable first bound at this step
           and a constant are sargable: orient them as [cell op const]
           on the variable's first argument position, so the evaluator
           can skip whole chunks before matching a single row. *)
        let flip = function
          | Query.Lt -> Query.Gt
          | Query.Le -> Query.Ge
          | Query.Gt -> Query.Lt
          | Query.Ge -> Query.Le
          | (Query.Eq | Query.Neq) as op -> op
        in
        let arg_pos v =
          let rec find i = function
            | [] -> None
            | Term.Var v' :: _ when String.equal v' v -> Some i
            | _ :: rest -> find (i + 1) rest
          in
          find 0 info.ai_atom.Atom.args
        in
        let ranges =
          List.filter_map
            (fun (c : Query.comparison) ->
              let sargable op v k =
                if Var_set.mem v before then None
                else Option.map (fun j -> (j, op, k)) (arg_pos v)
              in
              match (c.Query.op, c.Query.left, c.Query.right) with
              | (Query.Lt | Query.Le | Query.Gt | Query.Ge), Term.Var v, Term.Cst k
                ->
                  sargable c.Query.op v k
              | (Query.Lt | Query.Le | Query.Gt | Query.Ge), Term.Cst k, Term.Var v
                ->
                  sargable (flip c.Query.op) v k
              | _ -> None)
            now_bound
        in
        let step =
          {
            st_pos = pos;
            st_atom = info.ai_atom;
            st_probe = (if info.ai_indexed then take max_probe_cols cols else []);
            st_est = est;
            st_comparisons = now_bound;
            st_ranges = ranges;
          }
        in
        pick bound pending (step :: acc)
          (List.filter (fun (p, _) -> p <> pos) remaining)
  in
  let steps, unbound =
    pick Var_set.empty rest [] (List.mapi (fun pos info -> (pos, info)) infos)
  in
  { pl_steps = steps; pl_pre = pre; pl_unbound = unbound }

let order t = List.map (fun s -> s.st_pos) t.pl_steps

let pp_cols ppf cols =
  Fmt.pf ppf "[%a]" Fmt.(list ~sep:(any ",") int) cols

let pp_step ppf s =
  Fmt.pf ppf "%a  %s est %.2f%a%a"
    (fun ppf -> function
      | [] -> Fmt.pf ppf "scan      "
      | cols -> Fmt.pf ppf "probe %a" pp_cols cols)
    s.st_probe
    (Atom.to_string s.st_atom)
    s.st_est
    Fmt.(
      list ~sep:nop (fun ppf c -> Fmt.pf ppf ", then %a" Query.pp_comparison c))
    s.st_comparisons
    Fmt.(
      list ~sep:nop (fun ppf (col, op, k) ->
          Fmt.pf ppf ", zone col %d %s %s" col (Query.string_of_op op)
            (Codb_relalg.Value.to_string k)))
    s.st_ranges

let pp ppf t =
  let numbered = List.mapi (fun i s -> (i + 1, s)) t.pl_steps in
  Fmt.pf ppf "@[<v>%a%a%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (i, s) -> Fmt.pf ppf "%2d. %a" i pp_step s))
    numbered
    Fmt.(
      list ~sep:nop (fun ppf c ->
          Fmt.pf ppf "@,pre-check %a" Query.pp_comparison c))
    t.pl_pre
    Fmt.(
      list ~sep:nop (fun ppf c ->
          Fmt.pf ppf "@,unbound comparison %a: no answers" Query.pp_comparison c))
    t.pl_unbound

let explain q t = Fmt.str "@[<v>plan for %a:@,%a@]" Query.pp q pp t
