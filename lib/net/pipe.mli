(** Pipes: bidirectional communication links between two peers, the
    simulator's counterpart of JXTA pipes.

    A pipe has a latency (seconds) and a per-byte transfer cost
    (seconds/byte); a message of [s] bytes sent at time [t] is
    delivered at [t + latency + byte_cost * s].  Pipes carry their own
    traffic statistics, which the coDB statistics module reads.
    Closing a pipe (when the last coordination rule using it is
    dropped, paper Section 3) silently drops messages sent afterwards;
    messages already in flight are delivered. *)

type t

type stats = { messages : int; bytes : int }

val create : Peer_id.t -> Peer_id.t -> latency:float -> byte_cost:float -> t
(** @raise Invalid_argument if the endpoints are equal or a latency or
    byte cost is negative. *)

val endpoints : t -> Peer_id.t * Peer_id.t
(** In normalised (sorted) order. *)

val latency : t -> float

val byte_cost : t -> float

val is_open : t -> bool

val close : t -> unit

val reopen : t -> unit

val transfer_delay : t -> size:int -> float

val sequence_delivery : t -> src:Peer_id.t -> float -> float
(** [sequence_delivery p ~src t] returns the actual delivery time for
    a message tentatively arriving at [t], enforcing FIFO order per
    direction (a later, smaller message never overtakes an earlier,
    larger one — pipes model stream transports, as JXTA pipes over
    TCP).  Records the returned time as the direction's latest
    delivery. *)

val record_traffic : t -> size:int -> unit

val stats : t -> stats

val pp : t Fmt.t
