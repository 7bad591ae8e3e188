module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Term = Codb_cq.Term
module Eval = Codb_cq.Eval
module Containment = Codb_cq.Containment
module Row = Codb_relalg.Row
module Value = Codb_relalg.Value

type entry = {
  e_query : Query.t;
  e_answers : Row.t list;
  e_stamp : Epoch.stamp;
}

type hit_kind = Exact | By_containment

type hit = { answers : Row.t list; kind : hit_kind }

type counters = {
  hits_exact : int;
  hits_containment : int;
  misses : int;
  stores : int;
  epoch_invalidations : int;
  evictions : int;
  bytes_served : int;
  entries : int;
  stored_bytes : int;
  epoch_bumps : int;
}

type t = {
  lru : (string, entry) Lru.t;
  epochs : Epoch.t;
  mutable c_hits_exact : int;
  mutable c_hits_containment : int;
  mutable c_misses : int;
  mutable c_stores : int;
  mutable c_epoch_invalidations : int;
  mutable c_bytes_served : int;
}

let create ?max_entries ?max_bytes () =
  {
    lru = Lru.create ?max_entries ?max_bytes ();
    epochs = Epoch.create ();
    c_hits_exact = 0;
    c_hits_containment = 0;
    c_misses = 0;
    c_stores = 0;
    c_epoch_invalidations = 0;
    c_bytes_served = 0;
  }

(* --- canonical keys ------------------------------------------------ *)

let canonical_renaming q =
  let table = Hashtbl.create 16 in
  let counter = ref 0 in
  let visit_term = function
    | Term.Cst _ -> ()
    | Term.Var v ->
        if not (Hashtbl.mem table v) then begin
          Hashtbl.replace table v (Printf.sprintf "v%d" !counter);
          incr counter
        end
  in
  let visit_atom a = List.iter visit_term a.Atom.args in
  visit_atom q.Query.head;
  List.iter visit_atom q.Query.body;
  List.iter
    (fun c ->
      visit_term c.Query.left;
      visit_term c.Query.right)
    q.Query.comparisons;
  fun v -> Option.value ~default:v (Hashtbl.find_opt table v)

let rename_term rho = function
  | Term.Cst _ as t -> t
  | Term.Var v -> Term.Var (rho v)

let rename_atom rho a = Atom.make a.Atom.rel (List.map (rename_term rho) a.Atom.args)

let rename_comparison rho c =
  { c with Query.left = rename_term rho c.Query.left; right = rename_term rho c.Query.right }

let rename_query rho q =
  Query.make ~head:(rename_atom rho q.Query.head)
    ~body:(List.map (rename_atom rho) q.Query.body)
    ~comparisons:(List.map (rename_comparison rho) q.Query.comparisons)
    ()

let normalize q = Query.to_string (rename_query (canonical_renaming q) q)

(* --- answerability from a cached superset query -------------------- *)

(* A variable renaming rho : vars(qc) -> vars(q), grown injectively. *)
let extend_renaming rho a b =
  match List.assoc_opt a rho with
  | Some b' -> if String.equal b b' then Some rho else None
  | None ->
      if List.exists (fun (_, b') -> String.equal b b') rho then None
      else Some ((a, b) :: rho)

let match_args rho args_c args_q =
  List.fold_left2
    (fun acc tc tq ->
      match acc with
      | None -> None
      | Some rho -> (
          match (tc, tq) with
          | Term.Cst c1, Term.Cst c2 -> if Value.equal c1 c2 then Some rho else None
          | Term.Var a, Term.Var b -> extend_renaming rho a b
          | Term.Cst _, Term.Var _ | Term.Var _, Term.Cst _ -> None))
    (Some rho) args_c args_q

(* Match the cached body onto the lookup body as a multiset of atoms,
   one-to-one, under a single injective variable renaming. *)
let rec match_bodies rho atoms_c atoms_q =
  match atoms_c with
  | [] -> Some rho
  | a :: rest ->
      let rec try_pick seen = function
        | [] -> None
        | b :: more -> (
            let attempt =
              if
                String.equal a.Atom.rel b.Atom.rel
                && List.length a.Atom.args = List.length b.Atom.args
              then match_args rho a.Atom.args b.Atom.args
              else None
            in
            match attempt with
            | Some rho' -> (
                match match_bodies rho' rest (List.rev_append seen more) with
                | Some final -> Some final
                | None -> try_pick (b :: seen) more)
            | None -> try_pick (b :: seen) more)
      in
      try_pick [] atoms_q

let comparison_equal c1 c2 =
  c1.Query.op = c2.Query.op
  && Term.equal c1.Query.left c2.Query.left
  && Term.equal c1.Query.right c2.Query.right

(* Remove one occurrence of each renamed cached comparison from the
   lookup's comparisons; the leftover is what the filter must apply. *)
let split_comparisons rho cached_cmps lookup_cmps =
  let remove_one c remaining =
    let rec loop seen = function
      | [] -> None
      | x :: rest ->
          if comparison_equal c x then Some (List.rev_append seen rest)
          else loop (x :: seen) rest
    in
    loop [] remaining
  in
  List.fold_left
    (fun acc c ->
      match acc with
      | None -> None
      | Some remaining -> remove_one (rename_comparison rho c) remaining)
    (Some lookup_cmps) cached_cmps

let term_vars terms =
  List.filter_map (function Term.Var v -> Some v | Term.Cst _ -> None) terms

let comparison_vars cmps =
  List.concat_map (fun c -> term_vars [ c.Query.left; c.Query.right ]) cmps

let subset vars bound = List.for_all (fun v -> List.mem v bound) vars

(* Can [q] be answered from the cached answers of [qc] alone?  Two
   sound sufficient conditions.  Fast path: [q] and [qc] are
   Chandra-Merlin equivalent, so the answer sets are identical.
   General path: the bodies are isomorphic under an injective variable
   renaming [rho], every cached comparison reappears (renamed) in [q]
   (so beyond [qc], [q] only adds comparisons and rearranges its
   head), and those extra comparisons - as well as [q]'s head - only
   touch variables exposed through [qc]'s head.  Then evaluating
       [q.head <- R_qc(rho(qc.head.args)), extra-comparisons]
   over the cached answer relation [R_qc] yields exactly [q]'s
   answers.  Note the general path covers head permutations, which are
   *not* answer-set containments - correctness rests on the
   isomorphism making the view evaluation exact, not on the CM
   test. *)
let answers_via_containment ~cached:qc ~answers q =
  if Containment.equivalent q qc then
    (* equivalent queries have identical answer sets *)
    Some answers
  else if List.length qc.Query.body <> List.length q.Query.body then None
  else
    match match_bodies [] qc.Query.body q.Query.body with
    | None -> None
    | Some rho -> (
        let rho_fn v = Option.value ~default:v (List.assoc_opt v rho) in
        match split_comparisons rho_fn qc.Query.comparisons q.Query.comparisons with
        | None -> None
        | Some extra ->
            let view_args = List.map (rename_term rho_fn) qc.Query.head.Atom.args in
            let exposed = term_vars view_args in
            if
              subset (term_vars q.Query.head.Atom.args) exposed
              && subset (comparison_vars extra) exposed
            then begin
              let view_rel = qc.Query.head.Atom.rel in
              let filter_query =
                Query.make ~head:q.Query.head
                  ~body:[ Atom.make view_rel view_args ]
                  ~comparisons:extra ()
              in
              let source = Eval.source_of_alist [ (view_rel, answers) ] in
              Some (Eval.answer_rows source filter_query)
            end
            else None)

(* --- the cache proper ---------------------------------------------- *)

let answer_bytes answers =
  List.fold_left (fun acc row -> acc + Row.size_bytes row) 0 answers

let entry_bytes key entry = 64 + String.length key + answer_bytes entry.e_answers

let serve t kind answers =
  (match kind with
  | Exact -> t.c_hits_exact <- t.c_hits_exact + 1
  | By_containment -> t.c_hits_containment <- t.c_hits_containment + 1);
  t.c_bytes_served <- t.c_bytes_served + answer_bytes answers;
  Some { answers; kind }

let miss t =
  t.c_misses <- t.c_misses + 1;
  None

type scan_verdict = Stale of string | Candidate of string * entry

let containment_scan t ~skip q =
  let scanned =
    Lru.fold
      (fun ~key ~value acc ->
        if String.equal key skip then acc
        else if not (Epoch.is_current t.epochs value.e_stamp) then Stale key :: acc
        else Candidate (key, value) :: acc)
      t.lru []
  in
  (* fold accumulates LRU-first; restore MRU-first preference *)
  let scanned = List.rev scanned in
  List.iter
    (function
      | Stale key ->
          Lru.remove t.lru key;
          t.c_epoch_invalidations <- t.c_epoch_invalidations + 1
      | Candidate _ -> ())
    scanned;
  let try_candidate = function
    | Stale _ -> None
    | Candidate (key, e) -> (
        match answers_via_containment ~cached:e.e_query ~answers:e.e_answers q with
        | Some answers -> Some (key, answers)
        | None -> None)
  in
  List.find_map try_candidate scanned

let lookup t q =
  let key = normalize q in
  let exact =
    match Lru.find t.lru key with
    | Some e when Epoch.is_current t.epochs e.e_stamp -> Some e
    | Some _ ->
        Lru.remove t.lru key;
        t.c_epoch_invalidations <- t.c_epoch_invalidations + 1;
        None
    | None -> None
  in
  match exact with
  | Some e -> serve t Exact e.e_answers
  | None -> (
      match containment_scan t ~skip:key q with
      | Some (winner_key, answers) ->
          Lru.touch t.lru winner_key;
          serve t By_containment answers
      | None -> miss t)

let store t q answers ~sources =
  let key = normalize q in
  let entry = { e_query = q; e_answers = answers; e_stamp = Epoch.stamp t.epochs sources } in
  Lru.add t.lru key entry ~bytes:(entry_bytes key entry);
  t.c_stores <- t.c_stores + 1

let count_stale t =
  Lru.fold
    (fun ~key:_ ~value acc ->
      if Epoch.is_current t.epochs value.e_stamp then acc else acc + 1)
    t.lru 0

let note_update t peers =
  let stale_before = count_stale t in
  Epoch.bump_all t.epochs peers;
  count_stale t - stale_before

let counters t =
  {
    hits_exact = t.c_hits_exact;
    hits_containment = t.c_hits_containment;
    misses = t.c_misses;
    stores = t.c_stores;
    epoch_invalidations = t.c_epoch_invalidations;
    evictions = Lru.evictions t.lru;
    bytes_served = t.c_bytes_served;
    entries = Lru.length t.lru;
    stored_bytes = Lru.bytes t.lru;
    epoch_bumps = Epoch.bumps t.epochs;
  }

let hit_ratio c =
  let hits = c.hits_exact + c.hits_containment in
  let lookups = hits + c.misses in
  if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups

let clear t = Lru.clear t.lru
