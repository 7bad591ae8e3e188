(** Loss-tolerant message delivery over the raw {!Runtime.send}.

    When {!Options.reliable} is on (and the node carries a {!Relay}),
    {!send} frames the payload as [Payload.Seq {seq; inner}], keeps it
    in flight, and retransmits on a bounded exponential-backoff timer
    until the receiver's [Seq_ack] arrives or [max_retries] is
    exhausted.  Receivers ({!on_seq}) acknowledge {e every} delivery —
    the lost message may be the ack — and suppress duplicates by
    (sender, sequence) so retransmissions and fault-injected dups are
    idempotent.

    With the layer off (the default [ack_timeout = 0], or a stub
    runtime without a relay) every call degrades to the raw
    fire-and-forget send, byte-for-byte identical to the seed. *)

module Peer_id = Codb_net.Peer_id

val tracks_delivery : Runtime.t -> bool
(** Does the transport track delivery here: {!Options.reliable} is on
    and the node carries a {!Relay}?  Then {!send} settles every
    message, and a sender may count what is in flight. *)

val send :
  ?on_settled:(ok:bool -> unit) -> Runtime.t -> dst:Peer_id.t -> Payload.t -> bool
(** Reliable mode: returns [true] (the transport has custody) and
    later calls [on_settled ~ok:true] when acked or [~ok:false] after
    the last retry times out.  Raw mode: plain {!Runtime.send} result,
    [on_settled] is {e never} invoked.  [Stats_response] is always
    sent raw (the super-peer keeps no transport state). *)

val send_noted :
  ?on_settled:(ok:bool -> unit) -> Runtime.t -> dst:Peer_id.t -> Payload.t -> bool
(** {!send}, counting a [false] result in
    {!Stats.chaos}[.ch_send_drops] so formerly-ignored drops surface
    in reports. *)

val on_ack : Runtime.t -> int -> unit
(** Handle an incoming [Seq_ack]: settle the in-flight entry and fire
    its callback.  Duplicate and post-give-up acks are ignored. *)

val on_seq :
  Runtime.t -> src:Peer_id.t -> seq:int -> process:(Payload.t -> unit) -> Payload.t -> unit
(** Handle an incoming [Seq] frame: always re-ack, then run [process]
    on the inner payload iff (src, seq) was not seen before. *)
