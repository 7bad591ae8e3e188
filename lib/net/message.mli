(** Message envelopes, the simulator's counterpart of JXTA messages. *)

type 'a t = {
  msg_id : int;  (** unique per network *)
  src : Peer_id.t;
  dst : Peer_id.t;
  sent_at : float;
  size : int;  (** wire size in bytes: [size_of] of the payload plus the header *)
  payload : 'a;
}

val header_bytes : int
(** Fixed per-message overhead added to the payload size. *)

val pp : 'a Fmt.t -> 'a t Fmt.t
