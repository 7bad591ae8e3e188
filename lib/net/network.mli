(** The discrete-event network simulator.

    This is the substitute for the JXTA layer the original coDB was
    built on.  It provides peers, pipes, typed messages, timers and a
    deterministic run loop: events at equal simulated times fire in
    the order they were scheduled.

    Handlers run inside the simulation loop; anything they send is
    scheduled for a later simulated time, so re-entrancy is never an
    issue.  Messages sent when no open pipe exists between the
    endpoints are counted as dropped, like JXTA messages to an
    unresolved pipe. *)

type 'a t

type counters = {
  delivered : int;
  dropped : int;
  total_bytes : int;  (** bytes actually delivered *)
  dropped_bytes : int;
      (** bytes lost — at send time (no open pipe, envelope included)
          or at delivery time (peer removed / no handler) *)
  injected_drops : int;
      (** messages silently lost by the fault plan (the sender saw
          [true]; not part of [dropped]) *)
  injected_dups : int;  (** messages delivered twice by the fault plan *)
  injected_flaps : int;  (** scheduled pipe closures executed *)
  crashes : int;  (** node crashes noted by the layer above *)
  restarts : int;
}

val create :
  ?default_latency:float ->
  ?default_byte_cost:float ->
  size_of:(src:Peer_id.t -> dst:Peer_id.t -> 'a -> int) ->
  unit ->
  'a t
(** [size_of] gives the wire size of a payload (the envelope adds
    {!Message.header_bytes}).  It receives the endpoints so link-level
    codec state (incremental dictionaries) can be trained per directed
    link.  Defaults: 1 ms latency, 1 µs/byte. *)

val set_link_watcher : 'a t -> (Peer_id.t -> Peer_id.t -> unit) -> unit
(** Register a callback fired with the two endpoints on every pipe
    open<->close transition — connect, disconnect, remove, flap — and
    on a send attempt against a closed pipe (before the dropped
    message is priced).  Link-level codec state upstream must not
    trust the link across these events. *)

val add_peer : 'a t -> Peer_id.t -> unit
(** Idempotent. *)

val remove_peer : 'a t -> Peer_id.t -> unit
(** Closes all the peer's pipes; in-flight messages to it are dropped
    at delivery time. *)

val has_peer : 'a t -> Peer_id.t -> bool

val set_handler : 'a t -> Peer_id.t -> ('a Message.t -> unit) -> unit
(** Register the message handler for a peer.  @raise Invalid_argument
    if the peer does not exist. *)

val clear_handler : 'a t -> Peer_id.t -> unit
(** Drop the peer's handler without removing the peer: a crash.  The
    peer's pipes are untouched (close them separately); messages that
    reach it meanwhile drop at delivery time.  A later {!set_handler}
    is the restart.  No-op on an unknown peer. *)

val connect : ?latency:float -> ?byte_cost:float -> 'a t -> Peer_id.t -> Peer_id.t -> unit
(** Create (or reopen) the pipe between two peers.  @raise
    Invalid_argument if either peer is missing. *)

val disconnect : 'a t -> Peer_id.t -> Peer_id.t -> unit
(** Close the pipe; a no-op if none exists. *)

val connected : 'a t -> Peer_id.t -> Peer_id.t -> bool

val pipe_between : 'a t -> Peer_id.t -> Peer_id.t -> Pipe.t option

val neighbours : 'a t -> Peer_id.t -> Peer_id.t list
(** Peers reachable through an open pipe, sorted. *)

val pipes : 'a t -> Pipe.t list

val send : 'a t -> src:Peer_id.t -> dst:Peer_id.t -> 'a -> bool
(** Enqueue a message.  [false] iff it was dropped immediately (no
    open pipe).  Messages in flight when a pipe closes are still
    delivered; messages to a removed peer are dropped silently at
    delivery time. *)

val schedule : 'a t -> delay:float -> (unit -> unit) -> unit
(** A timer local to the simulation (used e.g. by nodes to start
    updates at a given simulated time).  @raise Invalid_argument on a
    negative delay. *)

val now : 'a t -> float

val in_flight : 'a t -> 'a Message.t list
(** Messages queued for delivery (injected duplicates included), in
    no particular order: what a test inspects when it stops the
    simulation mid-run. *)

val run : ?max_events:int -> 'a t -> int
(** Process events until the queue drains (or [max_events] is
    reached); returns the number of events processed. *)

val step : 'a t -> bool
(** Process a single event; [false] when the queue is empty. *)

val idle : 'a t -> bool
(** No event is queued: a {!run} that returns with [idle] false was
    stopped by its [max_events] bound. *)

val handler_of : 'a t -> Peer_id.t -> ('a Message.t -> unit) option
(** The peer's current handler ([None] for a crashed or unknown peer);
    with {!set_handler} it lets a caller wrap delivery, e.g. to time
    each handler run. *)

val install_fault : 'a t -> Fault.plan -> Fault.t
(** Validate the plan, apply it to every subsequent {!send}, and
    schedule its link flaps.  Returns the live fault state so the
    layer above can note crash/restart events into the same counters.
    @raise Invalid_argument on an invalid plan. *)

val fault : 'a t -> Fault.t option

val counters : 'a t -> counters
