(** The per-node statistical module (paper, Section 4).

    "This module accumulates various information about global updates
    such as: total execution time of an update, number of query result
    messages received per coordination rule and the volume of the data
    in each message, longest update propagation path, and so on."

    Each counter exists once, in the mutable accumulators below that
    the protocol layers write.  A {!snapshot} holds deep copies of
    them — what a node sends to the super-peer in a [Stats_response] —
    so later work on the node leaves it unchanged. *)

module Peer_id = Codb_net.Peer_id

type rule_traffic = {
  mutable rt_msgs : int;
  mutable rt_bytes : int;
  mutable rt_tuples : int;
}

type update_stat = {
  us_update : Ids.update_id;
  mutable us_started : float;
  mutable us_finished : float option;
  mutable us_data_msgs : int;  (** received messages that carried rows *)
  mutable us_control_msgs : int;
      (** received requests, closes, acks and terminateds; a message to
          the engagement parent that carries rows and a close or the
          ack counts here and as data *)
  mutable us_bytes_in : int;
  mutable us_new_tuples : int;
  mutable us_dup_suppressed : int;
  mutable us_nulls_created : int;
  mutable us_max_hops : int;  (** longest update propagation path seen *)
  us_eval : Codb_cq.Eval.counters;  (** evaluator work during rule evaluation *)
  mutable us_forced : bool;
      (** the initiator's stall watchdog force-terminated this update:
          the fix-point may be incomplete on nodes that lost messages *)
  us_per_rule : (string, rule_traffic) Hashtbl.t;
      (** data traffic received, per outgoing coordination rule *)
  mutable us_queried : Peer_id.t list;  (** acquaintances we requested data from *)
  mutable us_sent_to : Peer_id.t list;  (** importers we sent results to *)
}

type query_stat = {
  qs_query : Ids.query_id;
  mutable qs_started : float;
  mutable qs_finished : float option;
  mutable qs_data_msgs : int;
      (** received messages that carried rows: every [Query_data], and a
          [Query_done] that carries its stream's last rows *)
  mutable qs_bytes_in : int;  (** the bytes of those messages *)
  mutable qs_answers : int;
  mutable qs_certain : int;
  qs_eval : Codb_cq.Eval.counters;  (** evaluator work answering the query *)
  mutable qs_complete : bool;
      (** [false] when any sub-request in the diffusion tree was
          declared failed: the answers are a lower bound *)
  mutable qs_pushed : int;
      (** sub-requests sent with a non-trivial pushed constraint set *)
  mutable qs_filtered_at_source : int;
      (** tuples a responder derived but withheld because the pushed
          constraints ruled them out (bytes that never hit the wire) *)
}

(** Node-wide fault-tolerance counters: what the reliable transport
    and the partial-answer machinery did on this node. *)
type chaos = {
  mutable ch_retransmits : int;  (** messages re-sent after an ack timeout *)
  mutable ch_dup_suppressed : int;
      (** duplicate deliveries discarded by receiver-side sequence
          dedup (retransmissions that did arrive, and injected dups) *)
  mutable ch_give_ups : int;
      (** messages abandoned after [max_retries] retransmissions *)
  mutable ch_query_timeouts : int;
      (** sub-requests declared failed past the failure deadline *)
  mutable ch_partial_answers : int;
      (** root queries that completed with [qs_complete = false] *)
  mutable ch_forced_terminations : int;
      (** updates force-terminated by the initiator's stall watchdog *)
  mutable ch_send_drops : int;
      (** sends that returned [false] (no open pipe) at call sites
          that previously discarded the result *)
  mutable ch_recovered_records : int;
      (** WAL records replayed into this node at restart (snapshot
          tuples are not records; see [ch_replayed_bytes]) *)
  mutable ch_replayed_bytes : int;
      (** snapshot + log-tail bytes consumed by recovery *)
  mutable ch_refetched_bytes : int;
      (** post-restart network bytes spent re-fetching state this node
          once held (the cost durability exists to shrink) *)
}

(** Node-wide standing-query counters ({!Codb_sub}): registrations,
    delta traffic in and out, push bytes, and the evaluator work
    attributed to incremental maintenance.  All zero while
    [Options.subscriptions] is off. *)
type sub_counters = {
  mutable sb_registered : int;  (** subscriptions accepted (local + remote) *)
  mutable sb_rejected : int;
      (** registrations refused (limit, duplicate, malformed query) *)
  mutable sb_unregistered : int;  (** explicit unregistrations *)
  mutable sb_deltas_in : int;
      (** store deltas examined per affected subscription *)
  mutable sb_deltas_out : int;  (** non-empty answer deltas delivered *)
  mutable sb_push_msgs : int;  (** [Answer_delta] messages sent *)
  mutable sb_adds : int;  (** answer tuples added across deliveries *)
  mutable sb_retracts : int;
  mutable sb_bytes : int;
      (** payload bytes of pushed answer deltas, each push sized on its
          own against a fresh dictionary, not the link frame (DESIGN §9) *)
  sb_eval : Codb_cq.Eval.counters;  (** evaluator work doing subscription maintenance *)
  mutable sb_torn_down : int;  (** subscriptions/mirrors lost to crashes *)
  mutable sb_rearmed : int;  (** re-registrations sent after a host restart *)
}

type t

val create : Peer_id.t -> t

val chaos : t -> chaos

val sub : t -> sub_counters

val with_eval_counters : Codb_cq.Eval.counters -> (unit -> 'a) -> 'a
(** [with_eval_counters into f] runs [f] and adds the evaluator work
    it caused to [into] — the one way every protocol layer (update
    fix-point, query engine, subscription maintenance) charges
    shared-evaluator work to its own statistic. *)

val note_retransmit : t -> unit

val note_dup_suppressed : t -> unit

val note_give_up : t -> unit

val note_query_timeout : t -> unit

val note_partial_answer : t -> unit

val note_forced_termination : t -> unit

val note_send_drop : t -> unit

val note_recovery : t -> records:int -> replayed_bytes:int -> unit
(** Credit a completed WAL recovery to this node's counters. *)

val note_refetched : t -> int -> unit
(** Count post-restart incoming update-data bytes as refetch cost. *)

val update_stat : t -> now:float -> Ids.update_id -> update_stat
(** Find or create the accumulator for an update (created with
    [us_started = now]). *)

val find_update : t -> Ids.update_id -> update_stat option

val query_stat : t -> now:float -> Ids.query_id -> query_stat

val find_query : t -> Ids.query_id -> query_stat option

val note_answer_msg : query_stat -> bytes:int -> unit
(** A received query message that carried rows: one data message of
    [bytes] answer bytes. *)

val rule_traffic : update_stat -> string -> rule_traffic

val note_queried : update_stat -> Peer_id.t -> unit

val note_sent_to : update_stat -> Peer_id.t -> unit

val set_inconsistent : t -> bool -> unit

(** {1 Snapshots} *)

type snapshot = {
  snap_node : Peer_id.t;
  snap_inconsistent : bool;
  snap_store_tuples : int;
  snap_updates : update_stat list;
      (** copies, in start order; ties by id ({!Ids.compare_update}) *)
  snap_queries : query_stat list;  (** copies, in start order, ties by id *)
  snap_chaos : chaos;  (** a copy *)
  snap_sub : sub_counters;  (** a copy *)
}

val snapshot : ?store_tuples:int -> t -> snapshot
(** Deep copies of the node's accumulators: mutating the node
    afterwards leaves the snapshot unchanged. *)

val snapshot_size_bytes : snapshot -> int
(** Estimated wire size of a snapshot (for the network simulator). *)

val pp_snapshot : snapshot Fmt.t
