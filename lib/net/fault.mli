(** Deterministic fault injection for the simulated network.

    A {!plan} describes the faults a run should suffer: per-send drop
    and duplication probabilities, latency jitter, and scheduled link
    flaps.  {!Network.install_fault} applies the plan inside
    [Network.send]; node crash/restart events are orchestrated one
    layer up (the system knows about handlers and protocol state) but
    are counted here so every injected fault kind appears in
    {!Network.counters}.

    Determinism: all randomness comes from a [Random.State] seeded
    exactly like [Codb_workload.Rng.make ~seed], and {!verdict}
    consumes a fixed number of draws per message, so two runs with the
    same plan and the same message sequence produce byte-identical
    fault schedules. *)

type flap = {
  fl_a : Peer_id.t;
  fl_b : Peer_id.t;
  fl_down_at : float;  (** simulated time the pipe closes *)
  fl_up_at : float;  (** simulated time it reopens; must be later *)
}

type plan = {
  seed : int;
  drop_prob : float;  (** probability a sent message silently vanishes *)
  dup_prob : float;  (** probability a delivered message arrives twice *)
  jitter : float;
      (** max extra delivery delay, drawn uniformly per message and
          applied after FIFO sequencing — so jittered messages really
          do reorder *)
  drop_budget : int;
      (** stop injecting drops after this many (further drop draws are
          still consumed, keeping the schedule aligned); [max_int] for
          unlimited.  A finite budget makes "every drop is eventually
          retried to delivery" a deterministic property. *)
  flaps : flap list;
}

type counters = {
  injected_drops : int;
  injected_dups : int;
  injected_flaps : int;  (** pipe-close events executed *)
  crashes : int;
  restarts : int;
}

(** What the fault layer decided for one message. *)
type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_jitter : float;
  v_dup_extra : float;  (** extra delay of the duplicate beyond the jitter *)
}

type t

val validate_plan : plan -> (unit, string list) result

val make : plan -> t

val plan : t -> plan

val verdict : t -> verdict
(** Draw the fate of one message.  Counts applied drops and dups. *)

val note_flap : t -> unit

val note_crash : t -> unit

val note_restart : t -> unit

val counters : t -> counters
