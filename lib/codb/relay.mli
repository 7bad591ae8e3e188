(** Reliable-transport state: sequence numbers, in-flight entries and
    receiver-side duplicate suppression.

    This is the {e state} half of the transport; the {e logic} half
    ({!Reliable}) lives above the {!Runtime} record so it can send and
    schedule.  One [Relay.t] per node, owned by {!Node}. *)

module Peer_id = Codb_net.Peer_id

type entry = {
  e_dst : Peer_id.t;
  e_payload : Payload.t;
      (** the wrapped [Payload.Seq] frame; retransmissions resend it
          verbatim so the receiver's dedup key never changes *)
  mutable e_attempts : int;  (** retransmissions so far *)
  mutable e_settled : bool;
      (** acked or abandoned; stale retransmit timers check this *)
  e_on_settled : (ok:bool -> unit) option;
}

type t

val create : ?next_seq:int -> ?seen:string list -> unit -> t
(** Optionally seeded with a recovered sequence counter and dedup
    keys: a node restarting from a WAL snapshot must neither reuse
    sequence numbers its peers recorded nor re-process retransmitted
    messages it already integrated. *)

val next_seq : t -> int
(** The next sequence number to be handed out (snapshot state). *)

val seen_keys : t -> string list
(** The dedup table's keys, sorted (snapshot state). *)

val fresh_seq : t -> int
(** Monotonic per-node sequence number.  Survives {!abandon} so a
    restarted node never reuses a sequence its peers may have seen. *)

val register : t -> seq:int -> entry -> unit

val find : t -> int -> entry option

val settle : t -> int -> entry option
(** Mark acked/abandoned and remove from the in-flight table.  Returns
    the entry the first time only; [None] if unknown or already
    settled (duplicate acks are harmless). *)

val mark_seen : t -> src:Peer_id.t -> seq:int -> bool
(** Receiver-side dedup: [true] iff (src, seq) is new.  The table
    survives node restarts (see {!abandon}). *)

val seen : t -> src:Peer_id.t -> seq:int -> bool
(** Was (src, seq) already processed here?  A queued copy of such a
    frame is a duplicate the receiver will suppress. *)

val abandon : t -> unit
(** Crash/restart: settle every in-flight entry {e without} invoking
    callbacks (the volatile protocol state they would touch is being
    cleared anyway) and empty the table.  [next_seq] and the seen
    table are kept. *)
