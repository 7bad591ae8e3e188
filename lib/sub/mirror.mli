(** The subscriber-side view of a remote subscription.

    A mirror holds the answer set reconstructed from pushed
    {!Subscription.delta}s.  Application is idempotent set update
    (union adds, remove retracts), so duplicated or reordered
    deliveries — retried sends, a registration snapshot resent behind
    later adds — converge to the same set the host maintains.
    Re-registering with a restarted host {!reset}s the mirror first,
    so answers the host lost leave it. *)

module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query
module Row = Codb_relalg.Row

type t

val create :
  sub_id:string ->
  host:Peer_id.t ->
  ?on_delta:(Subscription.delta -> unit) ->
  Query.t ->
  t

val id : t -> string

val host : t -> Peer_id.t

val query : t -> Query.t

val answers : t -> Row.t list
(** In {!Row.compare} order. *)

val answer_count : t -> int

val deltas : t -> int
(** Deltas applied so far. *)

val accepted : t -> bool
(** Has the host confirmed the registration? *)

val rejected : t -> string option
(** The host's refusal reason, when registration was refused. *)

val mark_accepted : t -> unit

val mark_rejected : t -> string -> unit

val apply : t -> Subscription.delta -> unit
(** Fold a pushed delta into the mirrored answer set and invoke the
    client callback, if any. *)

val reset : t -> tag:string -> unit
(** Empty the answer set before re-registering; the host's
    registration snapshot and the deltas after it refill it.  The
    mirror is unaccepted until the host confirms the new
    registration.  The
    callback, if any, sees the removed answers as one retract-only
    delta tagged [tag]. *)
