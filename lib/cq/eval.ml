module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Intern = Codb_relalg.Intern
module Relation = Codb_relalg.Relation
module Database = Codb_relalg.Database

type rows = {
  size : int;
  indexed : bool;
  distinct : (int -> int) option;
  packed : int -> Relation.packed_view;
}

type source = string -> rows

(* The evaluator's work counters, process-wide like
   [Value.null_counter].  The same record is what each protocol layer
   charges its share to ([Stats.with_eval_counters]). *)
type counters = {
  mutable probes : int;  (** candidate sets served by an index probe *)
  mutable scans : int;  (** candidate sets served by a full scan *)
  mutable planned : int;  (** joins executed through a cost-based plan *)
  mutable zone_visited : int;  (** chunks a zone-mapped scan examined *)
  mutable zone_pruned : int;  (** chunks a zone-mapped scan skipped *)
}

let zero_counters () =
  { probes = 0; scans = 0; planned = 0; zone_visited = 0; zone_pruned = 0 }

let cell = zero_counters ()

let counters () = { cell with probes = cell.probes }

let reset_counters () =
  cell.probes <- 0;
  cell.scans <- 0;
  cell.planned <- 0;
  cell.zone_visited <- 0;
  cell.zone_pruned <- 0

(* A transient packed view over a row list: columns flattened into one
   int array, live rows are just [0..n-1], probes are filtered scans.
   A list source is never [indexed], so the planner gives it no probe
   columns and these probes stay unused in practice. *)
let rec packed_view_of_rows ~arity:a flat n =
  let ids = lazy (Array.init n (fun i -> i)) in
  {
    Relation.pv_arity = a;
    pv_cell = (fun col row -> flat.((row * a) + col));
    pv_all = (fun () -> (Lazy.force ids, n));
    pv_probe =
      (fun cols ->
        let cols = Array.of_list cols in
        let k = Array.length cols in
        fun vals ->
          let hits = Array.make (max 1 n) 0 in
          let hit = ref 0 in
          for row = 0 to n - 1 do
            let ok = ref true in
            for j = 0 to k - 1 do
              if flat.((row * a) + cols.(j)) <> vals.(j) then ok := false
            done;
            if !ok then begin
              hits.(!hit) <- row;
              incr hit
            end
          done;
          (hits, !hit));
    (* a flattened row list has no chunk structure: nothing to skip *)
    pv_prune = (fun _ -> None);
    pv_before = (fun since -> packed_view_of_rows ~arity:a flat (min n (max 0 since)));
  }

let empty_view a = packed_view_of_rows ~arity:a [||] 0

let empty_rows = { size = 0; indexed = false; distinct = None; packed = empty_view }

(* Pack rows of one width column-major: the columnar image the join
   core scans. *)
let pack_rows ~width tuples =
  let n = List.length tuples in
  let flat = Array.make (max 1 (n * width)) 0 in
  List.iteri
    (fun row t ->
      for j = 0 to width - 1 do
        flat.((row * width) + j) <- Intern.pack t.(j)
      done)
    tuples;
  packed_view_of_rows ~arity:width flat n

let rows_of_list tuples =
  let width = match tuples with [] -> 0 | t :: _ -> Array.length t in
  let same_width k t = Array.length t = k in
  let packed =
    if List.for_all (same_width width) tuples then
      let view = pack_rows ~width tuples in
      fun k -> if k = width then view else empty_view k
    else
      (* mixed widths: an atom sees only the rows of its own width *)
      fun k -> pack_rows ~width:k (List.filter (same_width k) tuples)
  in
  { size = List.length tuples; indexed = false; distinct = None; packed }

let of_database db rel =
  match Database.relation_opt db rel with
  | None -> empty_rows
  | Some r ->
      let arity = Codb_relalg.Schema.arity (Relation.schema r) in
      let view = Relation.packed_view r in
      let distinct col =
        if col >= 0 && col < arity then Relation.distinct_count r ~col else 1
      in
      {
        size = Relation.cardinal r;
        indexed = true;
        distinct = Some distinct;
        (* an atom of the wrong arity matches nothing; don't let the
           index see its out-of-range columns *)
        packed = (fun k -> if k = arity then view else empty_view k);
      }

let source_of_alist alist rel =
  match List.assoc_opt rel alist with
  | Some tuples -> rows_of_list tuples
  | None -> empty_rows

(* One body atom, prepared for the join loop: argument array, the
   packed rows of its width, the plan's probe column set, the
   comparisons that become ground at this step and its sargable order
   predicates. *)
type prepared = {
  p_args : Term.t array;
  p_view : Relation.packed_view;
  p_probe : int list;
  p_comparisons : Query.comparison list;
  p_ranges : (int * Query.comparison_op * Value.t) list;
}

(* Evaluate comparisons the planner proved ground before any step. *)
let check_comparisons subst comparisons =
  List.for_all
    (fun c ->
      match
        (Subst.apply_term subst c.Query.left, Subst.apply_term subst c.Query.right)
      with
      | Some v1, Some v2 -> Query.eval_comparison_op c.Query.op v1 v2
      | _ -> false)
    comparisons

let plan_of_atoms ?max_probe_cols atoms comparisons =
  let infos =
    List.map
      (fun (atom, rows) ->
        {
          Plan.ai_atom = atom;
          ai_size = rows.size;
          ai_indexed = rows.indexed;
          ai_distinct = rows.distinct;
        })
      atoms
  in
  Plan.make ?max_probe_cols infos comparisons

(* ---- packed join core ------------------------------------------------ *)

(* Every join runs on packed ints: the substitution is an array of int
   slots (one per body variable, in first-occurrence order), candidate
   sets are row ids, matching a candidate is integer comparison against
   column cells, and probes hand packed values straight to the
   relation's id-keyed indexes — no boxing, no string hashing, no
   per-probe copies.  A boxed [Subst.t] is materialised only per full
   match (or, for user queries, a boxed tuple per distinct answer). *)

type packed_arg =
  | Pconst of int  (* packed constant: candidate cell must equal it *)
  | Pvar of int  (* slot: bind on first occurrence, compare after *)
  | Pbindconst of int * int
      (* packed constant * slot: an equality comparison folded into
         the slot's first-occurrence position — the candidate cell
         must equal the constant, and the slot binds to it.  Failing
         candidates die on one integer compare, with no trail
         traffic and no comparison phase. *)

type packed_cterm = Cslot of int | Cval of Value.t

(* Step comparisons, compiled: (in)equality is decidable on packed
   ints ([Query.eval_comparison_op]'s Eq is [Value.equal], which is
   [Value.compare] = 0, which is packed equality); order comparisons
   unpack and defer to the boxed semantics. *)
type packed_check =
  | Ceq_sc of int * int  (* slot = packed constant *)
  | Cneq_sc of int * int
  | Ceq_ss of int * int  (* slot = slot *)
  | Cneq_ss of int * int
  | Cgen of Query.comparison_op * packed_cterm * packed_cterm

type packed_step = {
  k_view : Relation.packed_view;
  k_args : packed_arg array;
  k_scan : bool;  (* no probe columns at this step *)
  k_probe_src : packed_arg array;  (* aligned with the probe columns *)
  k_probe_vals : int array;  (* scratch, same length *)
  k_probe : int array -> int array * int;  (* prepared on the view *)
  k_checks : packed_check list;
  k_prune : (int * Relation.bound_op * int) list;
      (* zone-map bounds for a scan step: sargable order predicates
         plus the equality constants already folded into [k_args] *)
}

(* What a packed-match consumer sees: the slot array plus the
   name/slot correspondence, fixed before the search starts.  The
   consumer returns the per-match callback; [x_vals] holds every
   body variable's packed value whenever it fires. *)
type packed_ctx = {
  x_vals : int array;
  x_names : string array;  (* slot -> variable name *)
  x_slot : string -> int option;  (* variable name -> slot *)
}

let join_packed_run prepared ~(emit : packed_ctx -> unit -> unit) =
  (* slots in first-occurrence order over the plan's step sequence *)
  let slot_tbl = Hashtbl.create 16 in
  let slot_names = ref [] (* reversed *) in
  let slot_of v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> s
    | None ->
        let s = Hashtbl.length slot_tbl in
        Hashtbl.add slot_tbl v s;
        slot_names := v :: !slot_names;
        s
  in
  let total_args = ref 0 in
  (* slots already bound when the current step's matching begins, for
     the equality-folding below *)
  let bound_before : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let build p =
    let view = p.p_view in
    let args =
      Array.map
        (function
          | Term.Cst c -> Pconst (Intern.pack c)
          | Term.Var v -> Pvar (slot_of v))
        p.p_args
    in
    total_args := !total_args + Array.length args;
    (* the planner assigns a comparison to the earliest step at which
       its variables are ground, so every slot already exists *)
    let cterm = function
      | Term.Cst c -> Cval c
      | Term.Var v -> (
          match Hashtbl.find_opt slot_tbl v with
          | Some s -> Cslot s
          | None -> assert false)
    in
    (* A slot-vs-constant equality whose slot first binds at this step
       is sargable: fold it into the match at the slot's
       first-occurrence position instead of checking after the fact. *)
    let fold_eq s k =
      if Hashtbl.mem bound_before s then false
      else begin
        let rec find j =
          if j >= Array.length args then false
          else
            match args.(j) with
            | Pvar s' when s' = s ->
                args.(j) <- Pbindconst (k, s);
                true
            | _ -> find (j + 1)
        in
        find 0
      end
    in
    let checks =
      List.filter_map
        (fun (c : Query.comparison) ->
          match (c.Query.op, cterm c.Query.left, cterm c.Query.right) with
          | Query.Eq, Cslot s, Cval v | Query.Eq, Cval v, Cslot s ->
              let k = Intern.pack v in
              if fold_eq s k then None else Some (Ceq_sc (s, k))
          | Query.Neq, Cslot s, Cval v | Query.Neq, Cval v, Cslot s ->
              Some (Cneq_sc (s, Intern.pack v))
          | Query.Eq, Cslot s1, Cslot s2 -> Some (Ceq_ss (s1, s2))
          | Query.Neq, Cslot s1, Cslot s2 -> Some (Cneq_ss (s1, s2))
          | op, l, r -> Some (Cgen (op, l, r)))
        p.p_comparisons
    in
    Array.iter
      (function
        | Pvar s | Pbindconst (_, s) -> Hashtbl.replace bound_before s ()
        | Pconst _ -> ())
      args;
    let probe_src = Array.of_list (List.map (fun col -> args.(col)) p.p_probe) in
    (* Zone-map bounds for a scan: the plan's order predicates, plus
       every equality constant visible in the args (including those
       [fold_eq] just rewrote into [Pbindconst]).  Pruning only skips
       chunks that hold no matching row, so answers and the order they
       come out in are those of the every-chunk scan. *)
    let prune =
      if p.p_probe <> [] then []
      else begin
        let bound_of_op = function
          | Query.Lt -> Relation.Blt
          | Query.Le -> Relation.Ble
          | Query.Gt -> Relation.Bgt
          | Query.Ge -> Relation.Bge
          | Query.Eq | Query.Neq -> assert false (* never planned as a range *)
        in
        let ranges =
          List.map
            (fun (col, op, k) -> (col, bound_of_op op, Intern.pack k))
            p.p_ranges
        in
        let eqs = ref [] in
        Array.iteri
          (fun col a ->
            match a with
            | Pconst k | Pbindconst (k, _) ->
                eqs := (col, Relation.Beq, k) :: !eqs
            | Pvar _ -> ())
          args;
        ranges @ List.rev !eqs
      end
    in
    {
      k_view = view;
      k_args = args;
      k_scan = p.p_probe = [];
      k_probe_src = probe_src;
      k_probe_vals = Array.make (max 1 (Array.length probe_src)) 0;
      k_probe =
        (if p.p_probe = [] then fun _ -> ([||], 0)
         else view.Relation.pv_probe p.p_probe);
      k_checks = checks;
      k_prune = prune;
    }
  in
  (* explicit left-to-right construction: slot numbering and the
     equality-folding both depend on step order *)
  let steps =
    let rec seq acc = function
      | [] -> Array.of_list (List.rev acc)
      | p :: rest -> seq (build p :: acc) rest
    in
    seq [] prepared
  in
  let nslots = Hashtbl.length slot_tbl in
  let names = Array.of_list (List.rev !slot_names) in
  let vals = Array.make (max 1 nslots) 0 in
  let bound = Array.make (max 1 nslots) false in
  let trail = Array.make (max 1 !total_args) 0 in
  let trail_top = ref 0 in
  let nsteps = Array.length steps in
  let emit =
    emit
      {
        x_vals = vals;
        x_names = names;
        x_slot = (fun v -> Hashtbl.find_opt slot_tbl v);
      }
  in
  let cterm_value = function
    | Cval v -> v
    | Cslot s -> Intern.unpack vals.(s)
  in
  let check_ok = function
    | Ceq_sc (s, k) -> vals.(s) = k
    | Cneq_sc (s, k) -> vals.(s) <> k
    | Ceq_ss (s1, s2) -> vals.(s1) = vals.(s2)
    | Cneq_ss (s1, s2) -> vals.(s1) <> vals.(s2)
    | Cgen (op, l, r) -> Query.eval_comparison_op op (cterm_value l) (cterm_value r)
  in
  let checks_ok checks = List.for_all check_ok checks in
  let rec go d =
    if d = nsteps then emit ()
    else begin
      let st = steps.(d) in
      let rows, len =
        if st.k_scan then begin
          cell.scans <- cell.scans + 1;
          if st.k_prune == [] then st.k_view.Relation.pv_all ()
          else begin
            match st.k_view.Relation.pv_prune st.k_prune with
            | Some (rows, n, visited, pruned) ->
                cell.zone_visited <- cell.zone_visited + visited;
                cell.zone_pruned <- cell.zone_pruned + pruned;
                (rows, n)
            | None -> st.k_view.Relation.pv_all ()
          end
        end
        else begin
          cell.probes <- cell.probes + 1;
          let src = st.k_probe_src and scratch = st.k_probe_vals in
          for j = 0 to Array.length src - 1 do
            scratch.(j) <-
              (match src.(j) with
              | Pconst c | Pbindconst (c, _) -> c
              | Pvar s -> vals.(s))
          done;
          st.k_probe scratch
        end
      in
      let args = st.k_args in
      let nargs = Array.length args in
      let cell = st.k_view.Relation.pv_cell in
      (* defined once per candidate set, not per candidate: the inner
         loop must not allocate *)
      let rec matches row j =
        j >= nargs
        ||
        match args.(j) with
        | Pconst c -> cell j row = c && matches row (j + 1)
        | Pvar s ->
            if bound.(s) then vals.(s) = cell j row && matches row (j + 1)
            else begin
              vals.(s) <- cell j row;
              bound.(s) <- true;
              trail.(!trail_top) <- s;
              incr trail_top;
              matches row (j + 1)
            end
        | Pbindconst (c, s) ->
            cell j row = c
            && begin
                 vals.(s) <- c;
                 bound.(s) <- true;
                 trail.(!trail_top) <- s;
                 incr trail_top;
                 matches row (j + 1)
               end
      in
      for i = 0 to len - 1 do
        let row = rows.(i) in
        let mark = !trail_top in
        if matches row 0 && (st.k_checks == [] || checks_ok st.k_checks) then
          go (d + 1);
        while !trail_top > mark do
          decr trail_top;
          bound.(trail.(!trail_top)) <- false
        done
      done
    end
  in
  go 0


let join_packed prepared =
  let results = ref [] in
  join_packed_run prepared ~emit:(fun ctx ->
      let nslots = Array.length ctx.x_names in
      fun () ->
        let subst = ref Subst.empty in
        for s = 0 to nslots - 1 do
          subst := Subst.bind ctx.x_names.(s) (Intern.unpack ctx.x_vals.(s)) !subst
        done;
        results := !subst :: !results);
  List.rev !results

(* Plan a join and prepare its steps; [None] means the join is
   provably empty (a comparison no step ever grounds, or a violated
   variable-free comparison).  Counts one planned join either way. *)
let plan_prepared ?max_probe_cols atoms comparisons =
  cell.planned <- cell.planned + 1;
  let plan = plan_of_atoms ?max_probe_cols atoms comparisons in
  if plan.Plan.pl_unbound <> [] then None
  else if not (check_comparisons Subst.empty plan.Plan.pl_pre) then None
  else
    let arr = Array.of_list atoms in
    Some
      (List.map
         (fun (s : Plan.step) ->
           let atom, rows = arr.(s.Plan.st_pos) in
           {
             p_args = Array.of_list atom.Atom.args;
             p_view = rows.packed (Atom.arity atom);
             p_probe = s.Plan.st_probe;
             p_comparisons = s.Plan.st_comparisons;
             p_ranges = s.Plan.st_ranges;
           })
         plan.Plan.pl_steps)

(* Follow the plan's step order, probe the chosen column sets through
   composite indexes, and evaluate each comparison at the step the
   planner assigned it to. *)
let join ?max_probe_cols atoms comparisons =
  match plan_prepared ?max_probe_cols atoms comparisons with
  | None -> []
  | Some prepared -> join_packed prepared

let answers ?max_probe_cols source q =
  let atoms = List.map (fun a -> (a, source a.Atom.rel)) q.Query.body in
  join ?max_probe_cols atoms q.Query.comparisons

let plan_for ?max_probe_cols source q =
  let atoms = List.map (fun a -> (a, source a.Atom.rel)) q.Query.body in
  plan_of_atoms ?max_probe_cols atoms q.Query.comparisons

let delta_answers ?(naive = false) ?max_probe_cols source ~delta_rel ~since ~delta q =
  if naive then answers ?max_probe_cols source q
  else if not (List.exists (fun a -> String.equal a.Atom.rel delta_rel) q.Query.body) then []
  else begin
    let full = source delta_rel in
    (* the rows below the watermark: a prefix view sharing the
       relation's indexes, not a copy *)
    let old =
      {
        full with
        size = min since full.size;
        packed = (fun k -> (full.packed k).Relation.pv_before since);
      }
    in
    let delta_rows = rows_of_list delta in
    let occurrences =
      (* occurrence index of every body atom over [delta_rel] *)
      let _, occs =
        List.fold_left
          (fun (i, occs) a ->
            if String.equal a.Atom.rel delta_rel then (i + 1, i :: occs) else (i, occs))
          (0, []) q.Query.body
      in
      List.rev occs
    in
    let pass k =
      (* Occurrence k ranges over the delta, earlier ones over the old
         tuples, later ones over the full relation: every derivation
         uses at least one delta tuple and is produced exactly once. *)
      let _, atoms =
        List.fold_left
          (fun (i, acc) a ->
            if String.equal a.Atom.rel delta_rel then
              let rows = if i < k then old else if i = k then delta_rows else full in
              (i + 1, (a, rows) :: acc)
            else (i, (a, source a.Atom.rel) :: acc))
          (0, []) q.Query.body
      in
      join ?max_probe_cols (List.rev atoms) q.Query.comparisons
    in
    List.concat_map pass occurrences
  end

(* User queries run the packed join core and project the head {e
   without materialising substitutions} — each match writes the head's
   packed values into a scratch row, de-duplicated in an int-row table.
   Only the final duplicate-free answers are boxed (into canonical
   tuples) and sorted, so the whole evaluation touches boxed values
   exactly once per distinct answer: at the API boundary. *)
let answer_tuples ?max_probe_cols source q =
  (match Query.well_formed ~allow_existential_head:false q with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Eval.answer_tuples: " ^ reason));
  let atoms = List.map (fun a -> (a, source a.Atom.rel)) q.Query.body in
  match plan_prepared ?max_probe_cols atoms q.Query.comparisons with
  | None -> []
  | Some prepared ->
      let rows = ref [] in
      let seen : (int array, unit) Hashtbl.t = Hashtbl.create 1024 in
      join_packed_run prepared ~emit:(fun ctx ->
          let proj =
            Array.of_list
              (List.map
                 (function
                   | Term.Cst c -> Pconst (Intern.pack c)
                   | Term.Var v -> (
                       match ctx.x_slot v with
                       | Some s -> Pvar s
                       | None ->
                           (* no existential head variables, so every
                              head variable has a body slot *)
                           assert false))
                 q.Query.head.Atom.args)
          in
          let width = Array.length proj in
          let scratch = Array.make width 0 in
          fun () ->
            for j = 0 to width - 1 do
              scratch.(j) <-
                (match proj.(j) with
                | Pconst c -> c
                | Pvar s -> ctx.x_vals.(s)
                | Pbindconst _ -> assert false (* never built by the projector *))
            done;
            if not (Hashtbl.mem seen scratch) then begin
              let row = Array.copy scratch in
              Hashtbl.add seen row ();
              rows := row :: !rows
            end);
      List.sort Tuple.compare (List.map (fun row -> Array.map Intern.unpack row) !rows)

let certain tuples = List.filter (fun t -> not (Tuple.has_null t)) tuples
