(** The {e seed} boxed relation implementation, kept as a reference:
    the differential-testing oracle for the columnar {!Relation}.
    Same semantics as {!Relation}, restricted to the operations it
    still has; {!lookup_cols} is the oracle for [pv_probe].

    Set semantics throughout; relations are append-only.  Equality
    probes are served from hash indexes keyed by column sets, built
    lazily on the first probe and maintained incrementally by every
    insert.  At most 16 indexes are built per relation; past that,
    probes degrade to filtered scans. *)

open Codb_relalg

type t

val create : Schema.t -> t

val cardinal : t -> int

val mem : t -> Tuple.t -> bool

val insert : t -> Tuple.t -> bool
(** [insert r t] adds [t]; [true] iff [t] was not already present.
    @raise Invalid_argument if [t] does not conform to the schema or
    contains holes. *)

val subsumed : t -> Tuple.t -> bool
(** Null-aware membership; see {!Tuple.subsumes}. *)

val lookup_cols : t -> (int * Value.t) list -> Tuple.t list
(** Composite probe: tuples matching every [(col, value)] binding at
    once.  Duplicate bindings collapse; contradictory bindings yield
    [[]]; an empty binding list yields every tuple.
    @raise Invalid_argument if any column is out of range. *)

val distinct_count : t -> col:int -> int
(** Number of distinct values in a column.
    @raise Invalid_argument if [col] is out of range. *)

val to_list : t -> Tuple.t list
(** Tuples in {!Tuple.compare} order. *)

val copy : t -> t
