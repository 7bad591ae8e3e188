(** The per-node statistical module (paper, Section 4).

    "This module accumulates various information about global updates
    such as: total execution time of an update, number of query result
    messages received per coordination rule and the volume of the data
    in each message, longest update propagation path, and so on."

    Mutable accumulators live on each node; immutable {!snapshot}s are
    what a node sends to the super-peer in a [Stats_response]. *)

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
  mutable us_data_msgs : int;
  mutable us_control_msgs : int;
  mutable us_bytes_in : int;
  mutable us_new_tuples : int;
  mutable us_dup_suppressed : int;
  mutable us_nulls_created : int;
  mutable us_max_hops : int;  (** longest update propagation path seen *)
  mutable us_probes : int;  (** index probes during rule evaluation *)
  mutable us_scans : int;  (** relation scans during rule evaluation *)
  mutable us_zvisited : int;  (** chunks consulted by zone-map scans *)
  mutable us_zpruned : int;  (** chunks skipped by zone-map bounds *)
  mutable us_batches : int;  (** [Update_batch] messages this node sent *)
  mutable us_batch_tuples : int;  (** tuples shipped inside those batches *)
  mutable us_coalesced : int;
      (** tuples that never hit the wire: same-window duplicates and
          insert/retract pairs cancelled in the buffer *)
  mutable us_resends : int;
      (** re-sent tuples caused by bounded sent-filters forgetting
          (see {!Sent_filter.possible_resends}) *)
  mutable us_cache_staled : int;
      (** query-cache entries invalidated when this update finalised
          ({!Codb_cache.Qcache.note_update} churn) *)
  mutable us_forced : bool;
      (** the initiator's stall watchdog force-terminated this update:
          the fix-point may be incomplete on nodes that lost messages *)
  us_per_rule : (string, rule_traffic) Hashtbl.t;
      (** data traffic received, per outgoing coordination rule *)
  mutable us_queried : Peer_id.t list;  (** acquaintances we requested data from *)
  mutable us_sent_to : Peer_id.t list;  (** importers we sent results to *)
}

type cache_outcome =
  | Cache_unused  (** caching disabled for this node *)
  | Cache_miss
  | Cache_hit_exact
  | Cache_hit_containment

type query_stat = {
  qs_query : Ids.query_id;
  mutable qs_started : float;
  mutable qs_finished : float option;
  mutable qs_data_msgs : int;
  mutable qs_bytes_in : int;
  mutable qs_answers : int;
  mutable qs_certain : int;
  mutable qs_cache : cache_outcome;
  mutable qs_probes : int;
  mutable qs_scans : int;
  mutable qs_zvisited : int;  (** chunks consulted by zone-map scans *)
  mutable qs_zpruned : int;  (** chunks skipped by zone-map bounds *)
  mutable qs_complete : bool;
      (** [false] when any sub-request in the diffusion tree was
          declared failed: the answers are a lower bound *)
  mutable qs_pushed : int;
      (** sub-requests sent with a non-trivial pushed constraint set *)
  mutable qs_filtered_at_source : int;
      (** tuples a responder derived but withheld because the pushed
          constraints ruled them out (bytes that never hit the wire) *)
  mutable qs_pushdown_hits : int;
      (** sub-requests served from the responder-side (rule,
          constraints) cache *)
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
  mutable sb_prefiltered : int;
      (** delta tuples discarded by the pushed-down constraints before
          the semi-naive join ever saw them *)
  mutable sb_deltas_out : int;  (** non-empty answer deltas delivered *)
  mutable sb_push_msgs : int;  (** [Answer_delta]/[Answer_batch] messages sent *)
  mutable sb_adds : int;  (** answer tuples added across deliveries *)
  mutable sb_retracts : int;
  mutable sb_bytes : int;
      (** payload bytes of pushed answer deltas, each push sized on its
          own (per-message dictionary, not the link frame; DESIGN §9) *)
  mutable sb_coalesced : int;
      (** tuples cancelled or absorbed inside a [sub_batch_window] *)
  mutable sb_probes : int;  (** evaluator probes doing subscription maintenance *)
  mutable sb_scans : int;
  mutable sb_zvisited : int;  (** chunks consulted by zone-map scans *)
  mutable sb_zpruned : int;  (** chunks skipped by zone-map bounds *)
  mutable sb_cache_staled : int;
      (** cache entries invalidated to keep one-shot answers no staler
          than delivered subscription deltas *)
  mutable sb_torn_down : int;  (** subscriptions/mirrors lost to crashes *)
  mutable sb_rearmed : int;  (** re-registrations sent after a host restart *)
}

type t

val create : Peer_id.t -> t

val owner : t -> Peer_id.t

val chaos : t -> chaos

val sub : t -> sub_counters

val with_eval_counters :
  note:(probes:int -> scans:int -> zvisited:int -> zpruned:int -> unit) ->
  (unit -> 'a) ->
  'a
(** Run [f] and report the evaluator access-path counter deltas it
    caused to [note] — the one way every protocol layer (update
    fix-point, query engine, subscription maintenance) attributes
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

val rule_traffic : update_stat -> string -> rule_traffic

val note_queried : update_stat -> Peer_id.t -> unit

val note_sent_to : update_stat -> Peer_id.t -> unit

val set_inconsistent : t -> bool -> unit

val is_inconsistent : t -> bool

(** {1 Snapshots} *)

type rule_traffic_snap = {
  rts_rule : string;
  rts_msgs : int;
  rts_bytes : int;
  rts_tuples : int;
}

type update_snap = {
  usn_update : Ids.update_id;
  usn_started : float;
  usn_finished : float option;
  usn_data_msgs : int;
  usn_control_msgs : int;
  usn_bytes_in : int;
  usn_new_tuples : int;
  usn_dup_suppressed : int;
  usn_nulls_created : int;
  usn_max_hops : int;
  usn_probes : int;
  usn_scans : int;
  usn_zvisited : int;
  usn_zpruned : int;
  usn_batches : int;
  usn_batch_tuples : int;
  usn_coalesced : int;
  usn_resends : int;
  usn_cache_staled : int;
  usn_forced : bool;
  usn_per_rule : rule_traffic_snap list;
  usn_queried : Peer_id.t list;
  usn_sent_to : Peer_id.t list;
}

type query_snap = {
  qsn_query : Ids.query_id;
  qsn_started : float;
  qsn_finished : float option;
  qsn_data_msgs : int;
  qsn_bytes_in : int;
  qsn_answers : int;
  qsn_certain : int;
  qsn_cache : cache_outcome;
  qsn_probes : int;
  qsn_scans : int;
  qsn_zvisited : int;
  qsn_zpruned : int;
  qsn_complete : bool;
  qsn_pushed : int;
  qsn_filtered_at_source : int;
  qsn_pushdown_hits : int;
}

type chaos_snap = {
  chn_retransmits : int;
  chn_dup_suppressed : int;
  chn_give_ups : int;
  chn_query_timeouts : int;
  chn_partial_answers : int;
  chn_forced_terminations : int;
  chn_send_drops : int;
  chn_recovered_records : int;
  chn_replayed_bytes : int;
  chn_refetched_bytes : int;
}

(** Frozen {!sub_counters}. *)
type sub_snap = {
  ssn_registered : int;
  ssn_rejected : int;
  ssn_unregistered : int;
  ssn_deltas_in : int;
  ssn_prefiltered : int;
  ssn_deltas_out : int;
  ssn_push_msgs : int;
  ssn_adds : int;
  ssn_retracts : int;
  ssn_bytes : int;
  ssn_coalesced : int;
  ssn_probes : int;
  ssn_scans : int;
  ssn_zvisited : int;
  ssn_zpruned : int;
  ssn_cache_staled : int;
  ssn_torn_down : int;
  ssn_rearmed : int;
}

(** Frozen view of a node's {!Codb_cache.Qcache} counters, shipped in
    [Stats_response] messages alongside the per-query records. *)
type cache_snap = {
  csn_hits_exact : int;
  csn_hits_containment : int;
  csn_misses : int;
  csn_stores : int;
  csn_invalidations : int;  (** entries dropped for a stale epoch stamp *)
  csn_expirations : int;
  csn_evictions : int;
  csn_bytes_served : int;
  csn_entries : int;
  csn_stored_bytes : int;
}

type snapshot = {
  snap_node : Peer_id.t;
  snap_inconsistent : bool;
  snap_store_tuples : int;
  snap_updates : update_snap list;
  snap_queries : query_snap list;
  snap_cache : cache_snap option;  (** [None] when caching is off *)
  snap_chaos : chaos_snap;
  snap_sub : sub_snap;
}

val snapshot : ?store_tuples:int -> ?cache:cache_snap -> t -> snapshot

val snapshot_size_bytes : snapshot -> int
(** Estimated wire size of a snapshot (for the network simulator). *)

val chaos_snap_is_zero : chaos_snap -> bool

val sub_snap_is_zero : sub_snap -> bool

val pp_update_snap : update_snap Fmt.t

val pp_chaos_snap : chaos_snap Fmt.t

val pp_cache_snap : cache_snap Fmt.t

val pp_sub_snap : sub_snap Fmt.t

val pp_snapshot : snapshot Fmt.t
