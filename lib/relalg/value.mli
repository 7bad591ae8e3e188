(** Typed atomic values stored in coDB relations.

    Besides the usual scalar types, coDB needs two special kinds of
    values to implement GLAV coordination rules:

    - {e marked nulls} ([Null]): fresh labelled unknowns introduced when
      a coordination rule has existential variables in its head (see
      the paper, Section 3).  A marked null is equal only to itself.
    - {e holes} ([Hole]): positional placeholders used {e on the wire}
      for existential head positions.  A hole is never stored in a
      relation; the receiving node replaces every hole with a fresh
      marked null (or drops the tuple if it is subsumed by data it
      already has). *)

type null = {
  null_id : int;  (** globally unique identifier of the marked null *)
  null_rule : string;  (** id of the coordination rule that created it *)
}

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null of null  (** marked null: equal only to itself *)
  | Hole of int  (** wire-format placeholder for the [i]-th existential
                     head variable; never stored in a relation *)

(** Types of attributes, as declared in relation schemas.  A marked
    null is considered to conform to every type. *)
type ty = Tint | Tfloat | Tstring | Tbool

val compare : t -> t -> int
(** Total order used by tuple sets.  Values of distinct constructors
    are ordered by constructor; marked nulls are ordered by id. *)

val equal : t -> t -> bool

val type_of : t -> ty option
(** [type_of v] is [Some ty] for scalar values and [None] for marked
    nulls and holes (which conform to any type). *)

val conforms : ty -> t -> bool
(** Does the value inhabit the attribute type?  Nulls and holes
    conform to every type. *)

val is_null : t -> bool

val is_hole : t -> bool

val varint_size : int -> int
(** Encoded size of a non-negative int as an LEB128 varint — the
    building block of the shared wire-size model below. *)

val zigzag_size : int -> int
(** Encoded size of a signed int under zigzag + varint, matching
    {!Codb_net.Codec.zigzag} exactly. *)

val size_bytes : t -> int
(** The {e shared} wire-size model: the exact compact-codec cost of
    the value when its strings are not yet in the per-message
    dictionary (one tag byte, varint lengths, zigzag integers).
    The stats/report data-volume counters and the bench byte counters
    both delegate to this one function. *)

val fresh_null : rule:string -> t
(** A fresh marked null, labelled with the id of the coordination rule
    that introduced it.  Freshness is global to the process. *)

val null_counter : unit -> int
(** Number of marked nulls generated so far (for tests and reports). *)

val reset_null_counter : unit -> unit
(** Reset the generator.  Only for tests and benchmarks that need
    reproducible null identifiers; never call it mid-computation.
    Also runs every {!on_reset_null_counter} hook, so caches keyed by
    null identity (the intern table) start a fresh epoch. *)

val on_reset_null_counter : (unit -> unit) -> unit
(** Register a hook run by {!reset_null_counter}.  Internal: used by
    {!Intern} at module-initialisation time. *)

val ty_of_string : string -> ty option

val string_of_ty : ty -> string

val pp : t Fmt.t

val pp_ty : ty Fmt.t

val to_string : t -> string
