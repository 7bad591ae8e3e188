(** The {e seed} boxed relation implementation, kept as a reference:
    the differential-testing oracle for the columnar {!Relation}.
    Same surface and semantics as {!Relation}.

    A relation instance: a set of tuples conforming to a schema.

    Set semantics throughout, as required by the update algorithm's
    duplicate-suppression step.  Mutating operations return the tuples
    that were actually new, which is exactly the delta the algorithm
    propagates further.

    Equality probes are served from hash indexes keyed by column
    sets.  Indexes are built lazily on the first probe and then
    maintained {e incrementally} by every insert/remove, so repeated
    probe/mutate cycles (the update fix-point) never rebuild them from
    scratch.  The number of distinct indexes per relation is bounded
    by a budget; past it, probes degrade to filtered scans.  The
    relation also keeps cheap statistics — O(1) cardinality and
    per-column distinct-value counts — for the cost-based query
    planner. *)

open Codb_relalg

module Tuple_set : Set.S with type elt = Tuple.t

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val name : t -> string

val cardinal : t -> int
(** O(1): maintained incrementally, not recounted. *)

val is_empty : t -> bool

val mem : t -> Tuple.t -> bool

val insert : t -> Tuple.t -> bool
(** [insert r t] adds [t]; [true] iff [t] was not already present.
    Existing hash indexes and column statistics are updated in place.
    @raise Invalid_argument if [t] does not conform to the schema or
    contains holes (holes are a wire-only representation). *)

val insert_all : t -> Tuple.t list -> Tuple.t list
(** Insert many tuples; returns the sub-list that was actually new, in
    the input order. *)

val subsumed : t -> Tuple.t -> bool
(** Null-aware membership: is the (possibly hole-carrying) incoming
    tuple subsumed by some stored tuple?  See {!Tuple.subsumes}.
    Served by probing the hash index on the tuple's ground (non-hole)
    columns, so the cost is one bucket, not one scan; only an all-hole
    tuple degenerates to an emptiness check. *)

val lookup : t -> col:int -> Value.t -> Tuple.t list
(** Tuples whose [col]-th attribute equals the value, served from a
    hash index (built on first use, maintained on mutation).  The
    order of the result is unspecified.
    @raise Invalid_argument if [col] is out of range. *)

val lookup_cols : t -> (int * Value.t) list -> Tuple.t list
(** Composite probe: tuples matching every [(col, value)] binding at
    once, served from a multi-column hash index when the budget
    allows, degrading to an indexed-then-filter or filtered scan
    otherwise.  Duplicate bindings collapse; contradictory bindings
    yield [[]]; an empty binding list yields every tuple.
    @raise Invalid_argument if any column is out of range. *)

val distinct_count : t -> col:int -> int
(** Number of distinct values in a column — the planner's selectivity
    statistic.  First call per column is O(n); later calls are O(1)
    because the counter is maintained incrementally.
    @raise Invalid_argument if [col] is out of range. *)

val set_index_budget : t -> int -> unit
(** Cap the number of distinct hash indexes this relation may hold
    (clamped to >= 0; 0 disables index building entirely). *)

val index_budget : t -> int

val index_count : t -> int
(** Number of indexes currently built. *)

val remove : t -> Tuple.t -> bool
(** [true] iff the tuple was present. *)

val clear : t -> unit

val to_list : t -> Tuple.t list
(** Tuples in {!Tuple.compare} order. *)

val to_seq : t -> Tuple.t Seq.t

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val iter : (Tuple.t -> unit) -> t -> unit

val copy : t -> t

val equal_contents : t -> t -> bool

val size_bytes : t -> int

val pp : t Fmt.t
