(** A node's view of update epochs across the network.

    Every peer carries a monotone {e update epoch}: a counter bumped
    each time the peer participates in a (global or scoped) update
    that may have changed its exportable data.  A node keeps a local
    view of the epochs of the peers it has dealt with; cached answers
    are stamped with the epochs of the peers that contributed tuples
    at population time, and a stamp is valid exactly while none of
    those peers has moved to a later epoch in the node's view.

    The view is updated from the update protocol itself: a global
    update's request flood and terminated flood reach every node of
    the connected component, so when a node finalises an update it
    knows that it and all its acquaintances took part — bumping
    exactly the peers a locally cached entry can have imported from
    (sub-queries only ever go to acquaintances).  A write at the node
    itself bumps its own epoch.  Nothing else does: a local write at a
    remote peer bumps no epoch here, so an entry that depends on it
    stays current until the next update reaches this node.  The
    scheme is thus coherent with updates and with the node's own
    writes, and over-approximates staleness there (an update that
    changed nothing still bumps); it under-approximates it for remote
    writes between updates. *)

module Peer_id = Codb_net.Peer_id

type t

type stamp = (Peer_id.t * int) list
(** The epochs a set of peers had when an answer was cached. *)

val create : unit -> t

val current : t -> Peer_id.t -> int
(** Epoch 0 for peers never bumped. *)

val bump : t -> Peer_id.t -> unit

val bump_all : t -> Peer_id.t list -> unit

val bumps : t -> int
(** Total number of bump events recorded (for reports). *)

val stamp : t -> Peer_id.t list -> stamp
(** The current epochs of the given peers, deduplicated. *)

val is_current : t -> stamp -> bool
(** No stamped peer has a later epoch now. *)

val pp : t Fmt.t
