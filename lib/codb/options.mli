(** Tunable behaviour of the coDB algorithms.

    The defaults implement the paper; the switches exist for the
    ablation experiments (E7/E8/E17 in DESIGN.md) and for the
    simulated link, fault plan and durability a run is measured under.
    Disabling duplicate suppression on a cyclic network with
    existential head variables can make the fix-point diverge — that
    is the point of the ablation — so {!System.run} bounds every run's
    simulator events.

    Only settings some caller varies are fields.  Bounds no caller
    varies are named constants in the module that reads them: the
    subscription cap per node ({!Node}) and the WAL snapshot interval
    ({!Durable}).

    Two things are deliberately not switchable.  Every message is
    sized by its link frame: the compact codec with one incremental
    string dictionary per directed link ({!Payload.encoded_size}
    [~link]), so the statistics module's byte counts are the bytes a
    real link would carry.  And every crash is honest: a crashed node
    really loses its volatile state, store included. *)

type durability =
  | Dur_volatile
      (** an honest crash: volatile state is really destroyed and a
          restarted node re-fetches everything over the network (the
          clear-and-refetch baseline; the default) *)
  | Dur_wal
      (** an honest crash plus durability: every commit point is
          logged to a per-node write-ahead log with periodic
          snapshots ({!Codb_store}), and restart recovers from them *)

type t = {
  use_sent_cache : bool;
      (** per-incoming-link caches of already-sent tuples ("we delete
          from Ri those tuples which have been already sent") *)
  use_subsumption_dedup : bool;
      (** pre-insert duplicate suppression, null-aware ("we first
          remove from T those tuples which are already in R") *)
  naive_delta : bool;
      (** re-evaluate incoming links from scratch instead of
          semi-naively on the delta (ablation baseline) *)
  latency : float;  (** pipe latency, seconds *)
  byte_cost : float;  (** pipe transfer cost, seconds per byte *)
  pushdown : bool;
      (** push the requester's constant bindings, repeated-variable
          equalities and comparisons into query-time sub-requests
          ({!Codb_cq.Specialize}): responders evaluate specialized
          (smaller) joins, filter at the source, and re-specialize
          their own fan-out.  Off by default: the paper's diffusion
          ships every derivable head tuple, and that remains the
          bit-for-bit baseline (the E17 ablation switch) *)
  fault_seed : int;
      (** seed of the fault plan's random stream
          ({!Codb_net.Fault.plan}); same seed, same options, same
          workload => byte-identical fault schedule *)
  drop_prob : float;  (** per-message silent in-flight loss probability *)
  dup_prob : float;  (** per-message duplicate-delivery probability *)
  jitter : float;
      (** max extra delivery delay in simulated seconds, uniform per
          message, applied after FIFO sequencing (reordering) *)
  drop_budget : int;
      (** stop injecting drops after this many; [max_int] = unlimited.
          A finite budget under [max_retries] large enough makes
          eventual delivery (hence store equivalence with the
          fault-free run) deterministic. *)
  flap_plan : (string * string * float * float) list;
      (** (peer, peer, down_at, up_at): scheduled pipe closures *)
  crash_plan : (string * float * float option) list;
      (** (node, crash_at, restart_at): the node's handler is removed
          and its pipes closed at [crash_at]; with a restart time the
          handler re-registers, volatile protocol state is cleared and
          the acquaintance pipes reopen *)
  ack_timeout : float;
      (** reliable-transport acknowledgement timeout in simulated
          seconds; 0 disables the {!Reliable} layer entirely (the
          seed's fire-and-forget behaviour, byte-for-byte) *)
  max_retries : int;
      (** retransmissions before the transport abandons a message and
          reports failure to the protocol layer *)
  subscriptions : bool;
      (** standing queries ({!Codb_sub}): nodes accept continuous-query
          registrations, maintain their answer sets incrementally from
          store deltas, and push answer deltas to subscribers.  Off by
          default: the seed protocol has no subscription traffic and
          that remains the bit-for-bit baseline *)
  durability : durability;
      (** whether restart recovers from a write-ahead log;
          [Dur_volatile] (clear-and-refetch) by default *)
  wal_dir : string option;
      (** where [Dur_wal] keeps its log and snapshot files
          ([<dir>/<node>.wal] / [<dir>/<node>.snap]); [None] uses the
          deterministic in-memory backend (what tests and benches
          want) *)
  fsync : bool;
      (** flush every WAL write with [Unix.fsync]; only meaningful
          with [wal_dir] *)
}

val default : t

val validate : t -> (unit, string list) result
(** Reject non-sensical settings: negative [latency] or
    [byte_cost]; probabilities outside [0,1], negative [jitter],
    [drop_budget] or [ack_timeout], flaps that reopen before they
    close, crashes that restart before they crash, negative
    [max_retries]; an empty [wal_dir], [wal_dir] without [Dur_wal],
    [fsync] without [wal_dir].  Called by {!System.build} before any
    node is created, so every front end reports the same lines. *)

val faults_enabled : t -> bool
(** Any fault knob active (drop, dup, jitter, flaps or crashes). *)

val reliable : t -> bool
(** [ack_timeout > 0]: the reliable transport is on. *)

val rto : t -> int -> float
(** Retransmission timeout before the [n]-th retry:
    [ack_timeout * 2^n], growth capped at 64x. *)

val failure_deadline : t -> float
(** The total time the transport keeps trying one message (the sum of
    {!rto} over attempts [0..max_retries]) plus grace: after this long
    without completion a sub-request is declared failed (partial-answer
    deadline, stalled update watchdog window).  Floored at a small constant so the
    watchdog still works under fire-and-forget transport
    ([ack_timeout = 0]) with faults injected. *)
