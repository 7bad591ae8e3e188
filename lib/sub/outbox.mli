(** Per-destination buffering of answer deltas during the
    [sub_batch_window].

    Within the window, deltas for the same subscription are coalesced
    set-wise: an add cancels a pending retract of the same tuple (and
    vice versa), duplicates are absorbed, and what remains is flushed
    as one message per destination — a single [Answer_delta] when only
    one subscription has pending changes, an [Answer_batch]
    otherwise. *)

module Peer_id = Codb_net.Peer_id

type t

val create : unit -> t

val add : t -> dst:Peer_id.t -> sub_id:string -> Subscription.delta -> int
(** Buffer a delta; returns how many tuples were coalesced away
    (cancelled against or absorbed by pending ones). *)

val scheduled : t -> dst:Peer_id.t -> bool

val set_scheduled : t -> dst:Peer_id.t -> bool -> unit
(** Track whether a flush is already scheduled for this destination
    (one timer per destination per window). *)

val take : t -> dst:Peer_id.t -> (string * Subscription.delta) list
(** Drain the destination's buffer: non-empty coalesced deltas in
    sub_id order, adds/retracts in {!Codb_relalg.Row.compare}
    order. *)

val clear : t -> unit
(** Crash teardown. *)
