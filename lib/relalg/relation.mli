(** A relation instance: a set of tuples conforming to a schema.

    Set semantics throughout, as required by the update algorithm's
    duplicate-suppression step.  Relations are {e append-only}: the
    global update only ever adds tuples, so nothing removes a row.
    Mutating operations return the tuples that were actually new, which
    is exactly the delta the algorithm propagates further.

    Storage is {e columnar over interned values}: each tuple is a row
    of packed ints (one per column, see {!Intern}) held in growable
    column chunks, and row ids are exactly [0, cardinal), so equality
    is integer equality and probing never walks a boxed string.
    Nothing is kept boxed: the packed row ({!Row.t}) is the one form
    below the API, and the boxed entry points ({!insert}, {!mem},
    {!subsumed}, {!to_list}) pack or unpack at the call.  Every tuple
    this module hands out is canonical in the sense of
    {!Tuple.canonical}.

    Set semantics rest on one row index: an open-addressing table of
    row ids in a flat [int array] (linear probing from {!row_hash},
    power-of-two capacity, at most half full) whose probes compare the
    stored cells in place.  {!mem_row}, a duplicate {!insert_row} and
    {!subsumed_row} on a ground row allocate nothing.

    Equality probes go through {!packed_view}'s [pv_probe], served from
    hash indexes keyed by packed column values (row-id buckets).
    Indexes are built lazily on the first probe and then maintained
    {e incrementally} by every insert, so repeated probe/insert cycles
    (the update fix-point) never rebuild them from scratch.  A relation
    holds at most 16 distinct indexes; past that, probes reuse a built
    single-column index or degrade to filtered scans.  The relation
    also keeps cheap statistics — O(1) cardinality and per-column
    distinct-value counts — for the cost-based query planner.

    [copy] is a fork, in O(columns) whatever the row count: the fork
    reads the rows it started with through the source's own column
    chunks, row index, hash indexes (every bucket cut at the fork
    point) and zone maps, and keeps a row index, indexes, zone maps and
    distinct counters of its own only for the rows appended to it, and
    their cells in column chunks of its own. *)

module Tuple_set : Set.S with type elt = Tuple.t

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val name : t -> string

val cardinal : t -> int
(** O(1): maintained incrementally, not recounted. *)

val mem : t -> Tuple.t -> bool

val mem_row : t -> Row.t -> bool
(** {!mem} on a packed row. *)

val find_row : t -> Row.t -> int option
(** The id of the stored row equal to the packed one, by the row
    index. *)

val insert : t -> Tuple.t -> bool
(** [insert r t] adds [t]; [true] iff [t] was not already present.
    Existing hash indexes and column statistics are updated in place.
    @raise Invalid_argument if [t] does not conform to the schema or
    contains holes (holes are a wire-only representation). *)

val insert_row : t -> Row.t -> bool
(** {!insert} on a packed row: the update path's insert, which packs
    and boxes nothing.  The row is copied into the columns, never kept.
    @raise Invalid_argument as {!insert}. *)

val insert_all : t -> Tuple.t list -> Tuple.t list
(** Insert many tuples; returns the sub-list that was actually new, in
    the input order. *)

val row_hash : Row.t -> int
(** The row index's hash of a packed row: {!Row.hash}.  The index is
    an open-addressing table of row ids with a power-of-two capacity,
    and a probe starts at the slot named by the hash's low bits, so
    rows agreeing in those bits share one probe chain. *)

val subsumed : t -> Tuple.t -> bool
(** Null-aware membership: is the (possibly hole-carrying) incoming
    tuple subsumed by some stored tuple?  See {!Tuple.subsumes}.
    Served by the same access path as [pv_probe] on the tuple's ground
    (non-hole) columns, so the cost is one bucket, not one scan; only
    an all-hole tuple degenerates to an emptiness check. *)

val subsumed_row : ?below:int -> t -> Row.t -> bool
(** {!subsumed} on a packed row (holes as {!Intern} holes): the update
    path's duplicate probe.  With [below], only the rows below that id
    count: the relation as it stood before the rows [below, ...) were
    appended. *)

val distinct_count : t -> col:int -> int
(** Number of distinct values in a column — the planner's selectivity
    statistic.  First call per column is O(n); later calls are O(1)
    because the counter is maintained incrementally.
    @raise Invalid_argument if [col] is out of range. *)

val index_count : t -> int
(** Number of indexes currently built; a copy counts only those over
    its own appended rows. *)

val to_list : t -> Tuple.t list
(** Tuples in {!Tuple.compare} order, boxed afresh from
    {!sorted_ids} on every call. *)

val sorted_ids : t -> int array
(** Every row id, ordered by {!Row.compare} on the rows (which is
    {!Tuple.compare}'s order on the boxed tuples).  Sorted afresh on
    every call. *)

val sort_ids : t -> int array -> unit
(** Sort these row ids in place, in {!sorted_ids}' order. *)

val row : t -> int -> Row.t
(** A fresh copy of the row with this id. *)

val copy : t -> t
(** An independent relation with the same tuples: inserts into either
    side stay invisible to the other, and a probe prepared on the copy
    ([pv_probe]) never sees the source's later rows.  The copy builds
    no index over the rows it started with: it reads the source's.
    See the cost above.  {!distinct_count} on a copy answers what it
    would on a relation holding the same rows, so plans do not
    change. *)

val row_ids : int -> int array * int
(** The ids [0, n) as [(ids, n)]: a prefix of one shared identity
    array, read-only, as {!packed_view}'s [pv_all] returns it. *)

type bound_op = Blt | Ble | Bgt | Bge | Beq
(** Sargable predicate shapes a scan can push into chunk pruning:
    [cell op constant] on one column, constants packed (see
    {!Intern}). *)

type packed_view = {
  pv_arity : int;
  pv_cell : int -> int -> int;
      (** [pv_cell col row] is the packed value (see {!Intern}) stored
          at a column of a row. *)
  pv_all : unit -> int array * int;
      (** Every row id as [(ids, n)]; only the first [n] entries are
          meaningful. *)
  pv_probe : int list -> int array -> int array * int;
      (** [pv_probe cols] prepares a probe on a fixed column set
          (ascending, duplicate-free); applying it to the packed
          values aligned with [cols] yields the matching row ids as
          [(ids, n)].  The access path (index, index-then-filter, or
          scan, budget permitting) is resolved on first use; this is
          the relation's one access-path decision. *)
  pv_prune : (int * bound_op * int) list -> (int array * int * int * int) option;
      (** [pv_prune bounds] is the zone-map scan: row ids from exactly
          the chunks whose per-column [min, max] intervals can satisfy
          every [(col, op, packed_const)] bound, as
          [(ids, n, chunks_visited, chunks_pruned)].  Sound, not
          complete: surviving rows still need the row-level predicate
          check.  Zone maps build lazily on the first call and are
          maintained on insert.  [None] when the view has no chunk
          structure to prune (e.g. {!Codb_cq.Eval.rows_of_list} feeds)
          — callers fall back to [pv_all]. *)
  pv_before : (unit -> int) -> packed_view;
      (** [pv_before since] is the view cut to the row ids below
          [since ()]: the relation as it stood before the rows
          [since (), ...) were appended.  The bound is read at every
          access, so one cut view (and the probes prepared on it)
          serves a semi-naive join whose watermark moves from run to
          run.  Semi-naive evaluation reads the pre-delta relation
          through it.  Every id array a view returns
          is ascending, so the cut is a length, not a copy; the cut
          view shares the relation's indexes and zone maps.  What it
          walks stays below [since]: a scan or a zone-map scan reads
          only those rows and chunks, and a probe filtering an index
          bucket stops at the first id at or above [since].  A probe
          answered by a whole bucket costs the bucket. *)
}
(** Zero-copy packed access for the evaluator's join core: candidate
    sets are row ids, matching is integer comparison against column
    cells, and probes take packed values straight to the id-keyed
    indexes — no boxing, no string hashing, no per-probe copy.  Hit
    arrays may be internal index buckets, and [pv_all]'s array is
    shared by every relation: treat them as read-only, and index
    buckets as invalidated by the next insert into the relation. *)

val packed_view : t -> packed_view

val equal_contents : t -> t -> bool

val pp : t Fmt.t
