(* The seed boxed storage engine: an ordered
   tuple set plus hash indexes keyed by boxed value lists, cut down to
   the operations [Relation] still has.  It is the differential-testing
   oracle for the columnar [Relation] (they must agree on every
   operation); [lookup_cols] answers the probes [Relation] serves
   through [pv_probe]. *)

open Codb_relalg

module Tuple_set = Set.Make (Tuple)

(* Hash indexes are keyed by a sorted list of column positions; the
   single-column index on column [c] is the index on [[c]].  Indexes
   are built lazily on the first probe and then maintained in place by
   every insert, so the update fix-point no longer rebuilds them from
   scratch after each delta round. *)
type index = (Value.t list, Tuple.t list) Hashtbl.t

type t = {
  schema : Schema.t;
  mutable tuples : Tuple_set.t;
  mutable card : int;  (* O(1) cardinality for the planner *)
  indexes : (int list, index) Hashtbl.t;
  (* per-column distinct-value counters: built on the first
     [distinct_count] call, maintained incrementally afterwards *)
  col_counts : (Value.t, int) Hashtbl.t option array;
}

let max_indexes = 16

let create schema =
  {
    schema;
    tuples = Tuple_set.empty;
    card = 0;
    indexes = Hashtbl.create 4;
    col_counts = Array.make (Schema.arity schema) None;
  }

let cardinal r = r.card

let mem r t = Tuple_set.mem t r.tuples

let key_of cols t = List.map (fun c -> t.(c)) cols

let index_add index key t =
  let existing = Option.value ~default:[] (Hashtbl.find_opt index key) in
  Hashtbl.replace index key (t :: existing)

(* Incremental maintenance hooks: called with every tuple that
   actually enters the set. *)
let note_insert r t =
  r.card <- r.card + 1;
  Hashtbl.iter (fun cols index -> index_add index (key_of cols t) t) r.indexes;
  Array.iteri
    (fun col counts ->
      match counts with
      | None -> ()
      | Some counts ->
          let v = t.(col) in
          let n = Option.value ~default:0 (Hashtbl.find_opt counts v) in
          Hashtbl.replace counts v (n + 1))
    r.col_counts

let check_insertable r t =
  if Tuple.has_hole t then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple with holes in %s (instantiate first)"
         r.schema.Schema.rel_name);
  if not (Schema.conforms r.schema t) then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple %s does not conform to %s"
         (Tuple.to_string t)
         (Schema.to_string r.schema))

let insert r t =
  check_insertable r t;
  if Tuple_set.mem t r.tuples then false
  else begin
    r.tuples <- Tuple_set.add t r.tuples;
    note_insert r t;
    true
  end

let to_list r = Tuple_set.elements r.tuples

let copy r =
  {
    r with
    tuples = r.tuples;
    indexes = Hashtbl.create 4;
    col_counts = Array.make (Schema.arity r.schema) None;
  }

let check_col r col =
  if col < 0 || col >= Schema.arity r.schema then
    invalid_arg
      (Printf.sprintf "Relation.lookup: column %d out of range for %s" col
         r.schema.Schema.rel_name)

let build_index r cols =
  let index = Hashtbl.create (max 16 r.card) in
  Tuple_set.iter (fun t -> index_add index (key_of cols t) t) r.tuples;
  Hashtbl.replace r.indexes cols index;
  index

(* The index on [cols], existing or freshly built — [None] when the
   per-relation budget is exhausted (callers fall back to a scan). *)
let index_for r cols =
  match Hashtbl.find_opt r.indexes cols with
  | Some index -> Some index
  | None ->
      if Hashtbl.length r.indexes < max_indexes then Some (build_index r cols)
      else None

let scan_filter r bindings =
  Tuple_set.fold
    (fun t acc ->
      if List.for_all (fun (col, v) -> Value.equal t.(col) v) bindings then t :: acc
      else acc)
    r.tuples []

let lookup r ~col value =
  check_col r col;
  match index_for r [ col ] with
  | Some index -> Option.value ~default:[] (Hashtbl.find_opt index [ value ])
  | None -> scan_filter r [ (col, value) ]

(* Normalise a probe: sort by column, drop duplicate bindings, detect
   contradictions ([None] = provably empty). *)
let normalise_bindings bindings =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  let rec dedup = function
    | (c1, v1) :: ((c2, v2) :: _ as rest) when c1 = c2 ->
        if Value.equal v1 v2 then dedup rest else None
    | b :: rest -> Option.map (fun tail -> b :: tail) (dedup rest)
    | [] -> Some []
  in
  dedup sorted

let lookup_cols r bindings =
  List.iter (fun (col, _) -> check_col r col) bindings;
  match normalise_bindings bindings with
  | None -> []
  | Some [] -> to_list r
  | Some bindings -> (
      let cols = List.map fst bindings in
      match index_for r cols with
      | Some index ->
          Option.value ~default:[] (Hashtbl.find_opt index (List.map snd bindings))
      | None -> (
          (* budget exhausted: probe an already-built single-column
             index if one covers a bound column, filter the rest *)
          let covered =
            List.find_opt (fun (col, _) -> Hashtbl.mem r.indexes [ col ]) bindings
          in
          match covered with
          | Some (col, v) ->
              let rest = List.filter (fun (c, _) -> c <> col) bindings in
              List.filter
                (fun t -> List.for_all (fun (c, v') -> Value.equal t.(c) v') rest)
                (lookup r ~col v)
          | None -> scan_filter r bindings))

(* Subsumption probe.  A stored tuple (hole-free by
   [check_insertable]) subsumes [incoming] iff it agrees with every
   non-hole position, so the candidates are exactly the bucket of the
   ground columns: probe it through [lookup_cols] instead of scanning
   all [card] tuples.  All-hole tuples are subsumed by anything, and a
   non-conforming arity can match nothing. *)
let subsumed r incoming =
  if not (Tuple.has_hole incoming) then Tuple_set.mem incoming r.tuples
  else if Array.length incoming <> Schema.arity r.schema then
    Tuple_set.exists (fun stored -> Tuple.subsumes stored incoming) r.tuples
  else begin
    let ground = ref [] in
    Array.iteri
      (fun col v -> if not (Value.is_hole v) then ground := (col, v) :: !ground)
      incoming;
    match !ground with
    | [] -> r.card > 0
    | bindings -> lookup_cols r bindings <> []
  end

let distinct_count r ~col =
  check_col r col;
  match r.col_counts.(col) with
  | Some counts -> Hashtbl.length counts
  | None -> (
      (* a single-column index already knows the answer for free *)
      match Hashtbl.find_opt r.indexes [ col ] with
      | Some index -> Hashtbl.length index
      | None ->
          let counts = Hashtbl.create (max 16 (r.card / 4)) in
          Tuple_set.iter
            (fun t ->
              let v = t.(col) in
              let n = Option.value ~default:0 (Hashtbl.find_opt counts v) in
              Hashtbl.replace counts v (n + 1))
            r.tuples;
          r.col_counts.(col) <- Some counts;
          Hashtbl.length counts)
