(** A binary-heap priority queue of timed events.

    Events with equal times are delivered in insertion order (the
    sequence number breaks ties), which makes simulations fully
    deterministic.  Not thread-safe: the simulation loop is its only
    producer and consumer. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool

val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit

val pop : 'a t -> (float * 'a) option
(** Earliest event, or [None] when empty. *)

val clear : 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'a t -> 'acc -> 'acc
(** Fold over the queued events in no particular order. *)
