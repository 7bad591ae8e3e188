module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value
module Intern = Codb_relalg.Intern
module Relation = Codb_relalg.Relation
module Database = Codb_relalg.Database
module Row = Codb_relalg.Row

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
  mutable matches : int;  (** matches a compiled join handed its consumer *)
}

let zero_counters () =
  { probes = 0; scans = 0; planned = 0; zone_visited = 0; zone_pruned = 0; matches = 0 }

let cell = zero_counters ()

let counters () = { cell with probes = cell.probes }

let reset_counters () =
  cell.probes <- 0;
  cell.scans <- 0;
  cell.planned <- 0;
  cell.zone_visited <- 0;
  cell.zone_pruned <- 0;
  cell.matches <- 0

(* A scan-only packed view of the [len ()] rows read through [cell],
   the length read at every access: row ids are [0, len ()) (a prefix
   of the shared identity array), probes are filtered scans, and there
   is no chunk structure to prune.  Its sources are never [indexed], so
   the planner gives them no probe columns and these probes stay
   unused in practice. *)
let rec scan_view ~arity len cell =
  {
    Relation.pv_arity = arity;
    pv_cell = cell;
    pv_all = (fun () -> Relation.row_ids (len ()));
    pv_probe =
      (fun cols ->
        let cols = Array.of_list cols in
        fun vals ->
          let n = len () in
          let hits = Array.make (max 1 n) 0 and hit = ref 0 in
          for row = 0 to n - 1 do
            let ok = ref true in
            for j = 0 to Array.length cols - 1 do
              if cell cols.(j) row <> vals.(j) then ok := false
            done;
            if !ok then begin
              hits.(!hit) <- row;
              incr hit
            end
          done;
          (hits, !hit));
    pv_prune = (fun _ -> None);
    pv_before =
      (fun since -> scan_view ~arity (fun () -> min (len ()) (max 0 (since ()))) cell);
  }

(* A transient view over a row list: columns flattened into one int
   array, row-major. *)
let packed_view_of_rows ~arity:a flat n =
  scan_view ~arity:a (fun () -> n) (fun col row -> flat.((row * a) + col))

let empty_view a = packed_view_of_rows ~arity:a [||] 0

let empty_rows = { size = 0; indexed = false; distinct = None; packed = empty_view }

(* Flatten rows of one width row-major: the image the join core
   scans. *)
let pack_rows ~width (rows : Row.t list) =
  let n = List.length rows in
  let flat = Array.make (max 1 (n * width)) 0 in
  List.iteri (fun i row -> Array.blit row 0 flat (i * width) width) rows;
  packed_view_of_rows ~arity:width flat n

let rows_of_list (rows : Row.t list) =
  let width = match rows with [] -> 0 | row :: _ -> Array.length row in
  let same_width k row = Array.length row = k in
  let packed =
    if List.for_all (same_width width) rows then
      let view = pack_rows ~width rows in
      fun k -> if k = width then view else empty_view k
    else
      (* mixed widths: an atom sees only the rows of its own width *)
      fun k -> pack_rows ~width:k (List.filter (same_width k) rows)
  in
  { size = List.length rows; indexed = false; distinct = None; packed }

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
  | Some rows -> rows_of_list rows
  | None -> empty_rows

(* One body atom, placed by the plan for the join loop: argument
   array, the packed rows of its width, the plan's probe column set,
   the comparisons that become ground at this step and its sargable
   order predicates. *)
type placed = {
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
   match; the head projector boxes nothing (it copies a packed row per
   kept head). *)

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

(* Build a planned join's steps once and return its run: everything
   but the search itself (slot numbering, argument and comparison
   compilation, the consumer's per-match callback, scratch arrays) is
   done here, so a run allocates only per candidate set. *)
let compile_steps placed ~(emit : packed_ctx -> unit -> unit) =
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
    let cterm = function
      | Term.Cst c -> Cval c
      | Term.Var v -> (
          match Hashtbl.find_opt slot_tbl v with
          | Some s -> Cslot s
          (* unreachable: the planner assigns a comparison to the earliest
             step at which its variables are ground, so every slot exists *)
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
    seq [] placed
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
    if d = nsteps then begin
      cell.matches <- cell.matches + 1;
      emit ()
    end
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
  fun () ->
    (* a consumer that raised out of the last run left bindings behind *)
    trail_top := 0;
    Array.fill bound 0 (Array.length bound) false;
    go 0

(* Plan a join and prepare its steps; [None] means the join is
   provably empty (a comparison no step ever grounds, or a violated
   variable-free comparison).  Counts one planned join either way. *)
let plan_placed ?max_probe_cols atoms comparisons =
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

let nothing () = ()

(* The one compile function every join goes through: plan it (the
   plan's step order, the column sets it probes through composite
   indexes, the step each comparison is evaluated at) and compile the
   steps for [emit].  The returned run re-executes the compiled join on
   whatever its views hold at the time. *)
let compile ?max_probe_cols atoms comparisons ~emit =
  match plan_placed ?max_probe_cols atoms comparisons with
  | None -> nothing
  | Some placed -> compile_steps placed ~emit

let full_atoms source q = List.map (fun a -> (a, source a.Atom.rel)) q.Query.body

let full_run ?max_probe_cols source q ~emit =
  compile ?max_probe_cols (full_atoms source q) q.Query.comparisons ~emit ()

let plan_for ?max_probe_cols source q =
  plan_of_atoms ?max_probe_cols (full_atoms source q) q.Query.comparisons

(* The bounds of a semi-naive join's delta window, read at run time:
   the delta is [delta_rel]'s rows in [since, upto). *)
type window = { mutable since : int; mutable upto : int }

(* The rows below the watermark: a prefix view sharing the relation's
   indexes, not a copy. *)
let old_rows (full : rows) w =
  {
    full with
    size = min w.since full.size;
    packed = (fun k -> (full.packed k).Relation.pv_before (fun () -> w.since));
  }

(* The stored rows in the window, read in place: the delta a caller
   names by its watermark alone.  The window shares the relation's
   cells and copies nothing; like a row list it is not [indexed] (the
   planner scans it) and has no zone maps to prune.  The planner sees
   it as one row whatever the window it was planned on: a stream's
   plan serves every later window, and those are mostly a few rows, so
   the plan drives the join from the window and probes the rest. *)
let window_rows (full : rows) w =
  let packed k =
    let view = full.packed k in
    let len () =
      let _, total = view.Relation.pv_all () in
      max 0 (min w.upto total - w.since)
    in
    scan_view ~arity:view.Relation.pv_arity len (fun col row ->
        view.Relation.pv_cell col (w.since + row))
  in
  { size = 1; indexed = false; distinct = None; packed }

(* Compile the semi-naive join of [q] over [delta_rel]'s window [w]:
   one compiled pass per body occurrence of [delta_rel].  Occurrence k
   ranges over the stored window, earlier ones over the old rows, later
   ones over the full relation: every derivation uses at least one
   delta tuple and is produced exactly once.  [naive] compiles the full
   join instead. *)
let compile_delta ~naive source ~delta_rel ~window:w q ~emit =
  if naive then compile (full_atoms source q) q.Query.comparisons ~emit
  else begin
    let over_delta a = String.equal a.Atom.rel delta_rel in
    let full = source delta_rel in
    let old = old_rows full w and delta = window_rows full w in
    let pass k =
      let _, atoms =
        List.fold_left
          (fun (i, acc) a ->
            if over_delta a then
              let rows = if i < k then old else if i = k then delta else full in
              (i + 1, (a, rows) :: acc)
            else (i, (a, source a.Atom.rel) :: acc))
          (0, []) q.Query.body
      in
      compile (List.rev atoms) q.Query.comparisons ~emit
    in
    let occurrences =
      List.fold_left (fun n a -> if over_delta a then n + 1 else n) 0 q.Query.body
    in
    match List.init occurrences pass with
    | [] -> nothing
    | [ run ] -> run
    | passes -> fun () -> List.iter (fun run -> run ()) passes
  end

(* One boxed substitution per match. *)
let on_substs run f =
  run ~emit:(fun ctx ->
      let nslots = Array.length ctx.x_names in
      fun () ->
        let subst = ref Subst.empty in
        for s = 0 to nslots - 1 do
          subst := Subst.bind ctx.x_names.(s) (Intern.unpack ctx.x_vals.(s)) !subst
        done;
        f !subst)

let collect_substs run =
  let results = ref [] in
  on_substs run (fun subst -> results := subst :: !results);
  List.rev !results

let answers ?max_probe_cols source q = collect_substs (full_run ?max_probe_cols source q)

(* The join is depth-first, so stopping at the first accepted match
   materialises nothing beyond the current path. *)
let exists source q ~accept =
  let exception Found in
  let found s = if accept s then raise Found in
  match on_substs (full_run source q) found with
  | () -> false
  | exception Found -> true

(* A head buffer: the rows a run keeps, in the order the join found
   them, and a scratch array of the same capacity for the merge sort.
   It grows by doubling and is reused run after run, so a warm buffer
   allocates nothing. *)
type buffer = { mutable rows : Row.t array; mutable scratch : Row.t array; mutable len : int }

let no_row : Row.t = [||]

let buffer () = { rows = [||]; scratch = [||]; len = 0 }

let push b row =
  if b.len = Array.length b.rows then begin
    let cap = max 64 (2 * b.len) in
    let rows = Array.make cap no_row in
    Array.blit b.rows 0 rows 0 b.len;
    b.rows <- rows;
    b.scratch <- Array.make cap no_row
  end;
  b.rows.(b.len) <- row;
  b.len <- b.len + 1

(* Merge [src]'s sorted runs [lo, mid) and [mid, hi) into [dst] at
   [lo].  Runs already in order (the last of the left no greater than
   the first of the right) are copied with one comparison. *)
let merge src dst lo mid hi =
  if Row.compare src.(mid - 1) src.(mid) <= 0 then Array.blit src lo dst lo (hi - lo)
  else begin
    let i = ref lo and j = ref mid in
    for k = lo to hi - 1 do
      if !j >= hi || (!i < mid && Row.compare src.(!i) src.(!j) <= 0) then begin
        dst.(k) <- src.(!i);
        incr i
      end
      else begin
        dst.(k) <- src.(!j);
        incr j
      end
    done
  end

(* Bottom-up merge sort of the buffer's filled prefix, ping-ponging
   between its two arrays; returns the array that ends up sorted. *)
let sort b =
  let n = b.len in
  let rec pass src dst width =
    if width >= n then src
    else begin
      let lo = ref 0 in
      while !lo < n do
        let mid = min n (!lo + width) in
        let hi = min n (mid + width) in
        if mid < hi then merge src dst !lo mid hi
        else Array.blit src !lo dst !lo (n - !lo);
        lo := hi
      done;
      pass dst src (2 * width)
    end
  in
  pass b.rows b.scratch 1

(* The kept rows, sorted packed in [Tuple.compare] order and never
   boxed.  The buffer is emptied for the next run and its slots
   cleared, so it pins no rows between runs. *)
let take b =
  let n = b.len in
  let sorted = sort b in
  let rec build i acc = if i < 0 then acc else build (i - 1) (sorted.(i) :: acc) in
  let out = build (n - 1) [] in
  Array.fill b.rows 0 n no_row;
  Array.fill b.scratch 0 n no_row;
  b.len <- 0;
  out

(* The head projector, as a join consumer.  Each match writes the
   head's packed values into a scratch row (an existential variable
   projects to its hole); a row absent from [into] is copied, noted
   there and pushed onto [buf].  A row already in [into] costs a hash
   lookup and allocates nothing. *)
let projector q ~into ~buf =
  let existentials = Query.existential_head_vars q in
  let hole v =
    let rec index i = function
      | [] -> assert false (* a head variable outside the body is existential *)
      | x :: rest -> if String.equal x v then i else index (i + 1) rest
    in
    Pconst (Intern.pack (Value.Hole (index 0 existentials)))
  in
  fun ctx ->
    let proj =
      Array.of_list
        (List.map
           (function
             | Term.Cst c -> Pconst (Intern.pack c)
             | Term.Var v -> ( match ctx.x_slot v with Some s -> Pvar s | None -> hole v))
           q.Query.head.Atom.args)
    in
    let width = Array.length proj in
    let scratch = Array.make width 0 in
    (* the run keeps the slot values, not the name tables *)
    let vals = ctx.x_vals in
    fun () ->
      for j = 0 to width - 1 do
        scratch.(j) <-
          (match proj.(j) with
          | Pconst c -> c
          | Pvar s -> vals.(s)
          | Pbindconst _ -> assert false (* never built by the projector *))
      done;
      if not (Row.Table.mem into scratch) then begin
        let row = Array.copy scratch in
        Row.Table.add into row ();
        push buf row
      end

let fresh_rows () = Row.Table.create 64

let heads ?max_probe_cols ?(into = fresh_rows ()) source q =
  let buf = buffer () in
  full_run ?max_probe_cols source q ~emit:(projector q ~into ~buf);
  take buf

type prepared = {
  mutable r_query : Query.t;
  r_naive : bool;
  r_source : source;
  r_window : window;
  r_into : unit Row.Table.t;
  r_heads : buffer;
  mutable r_streams : (string * (unit -> unit)) list;
      (* per delta relation, its compiled passes *)
}

(* Preparing builds nothing: an owner may prepare a rule it never
   runs. *)
let prepare ?(naive = false) ~into source q =
  {
    r_query = q;
    r_naive = naive;
    r_source = source;
    r_window = { since = 0; upto = max_int };
    r_into = into;
    r_heads = buffer ();
    r_streams = [];
  }

let run ?query ~delta_rel ~since ?(upto = max_int) r =
  (match query with
  | Some q when not (r.r_query == q || Query.equal r.r_query q) ->
      r.r_query <- q;
      r.r_streams <- []
  | Some _ | None -> ());
  r.r_window.since <- since;
  r.r_window.upto <- upto;
  let passes =
    match List.assoc_opt delta_rel r.r_streams with
    | Some passes -> passes
    | None ->
        let passes =
          compile_delta ~naive:r.r_naive r.r_source ~delta_rel ~window:r.r_window r.r_query
            ~emit:(projector r.r_query ~into:r.r_into ~buf:r.r_heads)
        in
        r.r_streams <- (delta_rel, passes) :: r.r_streams;
        passes
  in
  passes ();
  take r.r_heads

let answer_rows ?max_probe_cols source q =
  (match Query.well_formed ~allow_existential_head:false q with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Eval.answer_rows: " ^ reason));
  heads ?max_probe_cols source q

let certain tuples = List.filter (fun t -> not (Tuple.has_null t)) tuples
