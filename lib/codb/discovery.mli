(** Topology discovery (paper Sections 3–4).

    JXTA let a coDB peer discover peers it has no coordination rules
    with; each node's UI shows "which other nodes (not acquaintances)
    it has discovered".  The simulator's equivalent is a TTL-bounded
    probe flood over the existing pipes: every node on the way answers
    with itself and its neighbourhood, replies routed back hop by hop
    along the probe's path, and the origin accumulates the results in
    [Node.known_peers]. *)

module Peer_id = Codb_net.Peer_id

val check_ttl : int -> (unit, string) result
(** [Error reason] for a negative probe time-to-live. *)

val start : Runtime.t -> ttl:int -> string
(** Launch a probe; returns its identifier.  The origin's immediate
    neighbours are recorded right away.  @raise Invalid_argument when
    {!check_ttl} fails. *)

val handle : Runtime.t -> src:Peer_id.t -> Payload.t -> unit
(** Process [Discovery_*] messages; others are ignored. *)
