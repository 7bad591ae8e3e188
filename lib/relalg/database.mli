(** A database instance: a collection of relations indexed by name.

    This plays the role of the paper's Local Database (LDB) and also of
    the temporary stores maintained by the Wrapper on mediator nodes
    and by the query engine's per-query overlays. *)

type t

val create : Schema.t list -> t
(** Empty database over the given relation schemas.
    @raise Invalid_argument on duplicate relation names. *)

val schema : t -> Schema.t list
(** The relation schemas, in declaration order. *)

val relation : t -> string -> Relation.t
(** @raise Not_found if no relation has that name. *)

val relation_opt : t -> string -> Relation.t option

val has_relation : t -> string -> bool

val rel_names : t -> string list

val insert : t -> string -> Tuple.t -> bool
(** [true] iff the tuple was new.  @raise Not_found on unknown
    relation; @raise Invalid_argument on schema mismatch. *)

val insert_all : t -> string -> Tuple.t list -> Tuple.t list
(** Returns the tuples actually inserted (the delta). *)

val tuples : t -> string -> Tuple.t list

val cardinal : t -> int
(** Total number of tuples across all relations. *)

val copy : t -> t
(** An independent copy: every relation is forked ({!Relation.copy}),
    in O(columns) each, and neither side sees the other's later
    inserts. *)

val equal_contents : t -> t -> bool
(** Same relation names and identical tuple sets in each. *)

val digest : t -> int
(** Content digest of the whole store: equal iff the same relations
    hold the same tuples (hash collisions aside), whatever order
    inserted them.  How chaos and recovery runs show two stores
    reached the same fix-point. *)

val pp : t Fmt.t
