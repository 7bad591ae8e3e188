(** Protocol event tracing.

    A bounded ring buffer of message-level events (sends and
    deliveries with simulated timestamps), attachable to a running
    {!System} for debugging and for teaching: a trace of a small
    update run reads as a step-by-step execution of the paper's
    algorithm. *)

module Peer_id = Codb_net.Peer_id

type direction = Sent | Delivered

type event = {
  ev_at : float;  (** simulated time *)
  ev_direction : direction;
  ev_src : Peer_id.t;
  ev_dst : Peer_id.t;
  ev_what : string;  (** {!Payload.describe} of the payload *)
}

type t

val create : ?capacity:int -> unit -> t
(** Default capacity: 4096 events; older events are overwritten. *)

val record : t -> event -> unit

val events : t -> event list
(** Oldest first (up to the capacity). *)

val length : t -> int

val dropped : t -> int
(** Events overwritten because the buffer was full. *)

val clear : t -> unit

val pp : t Fmt.t
