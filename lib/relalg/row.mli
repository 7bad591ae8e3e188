(** Packed rows: one {!Intern.packed} per column, holes included.

    The update and query protocols carry head tuples in this form from
    the projector that derives them ({!Codb_cq.Eval.heads}) to the
    relation that stores them ({!Relation.insert_row}): equality is
    integer equality, hashing never walks a string, and nothing is
    boxed on the way.  A row handed to another peer is shared with the
    sender's sent-cache, so rows are never mutated in place.

    {!compare} is {!Tuple.compare}'s order on the boxed forms, so a
    list sorted here is sorted there too: the wire bytes of a sorted
    message do not depend on which form produced it. *)

type t = int array

val of_tuple : Tuple.t -> t

val to_tuple : t -> Tuple.t
(** Canonical boxed values (see {!Intern.unpack}). *)

val compare : t -> t -> int
(** Arity first, then {!Intern.compare} column by column: the order
    {!Tuple.compare} gives the unpacked tuples.  Allocation-free. *)

val equal : t -> t -> bool

val hash : t -> int
(** Mixes {!Intern.hash} of every cell and avalanches the result with
    the same finaliser, so correlated columns do not cluster its low
    bits (the bits {!Table} and the store's row index pick buckets
    by); non-negative. *)

val has_hole : t -> bool

val has_null : t -> bool
(** Does the row hold a marked null?  Rows without nulls are the
    certain answers ({!Tuple.has_null}). *)

val instantiate_holes : rule:string -> t -> t
(** A copy with every hole replaced by a fresh marked null labelled
    [rule], minted left to right; the same hole twice gets the same
    null.  A row without holes is returned as is. *)

module Set : Set.S with type elt = t
(** Row sets in {!compare} order: standing-query answers and the
    answer-push buffers. *)

module Table : Hashtbl.S with type key = t
(** Rows keyed by every cell (the generic [Hashtbl.hash] reads only
    the first 10).  A lookup allocates nothing. *)
