(** Aggregation of node statistics into the super-peer's final report
    (paper, Section 4: "the super-peer processes all incoming
    statistical messages, aggregates them and creates a final
    statistical report"). *)

type update_report = {
  ur_update : Ids.update_id;
  ur_nodes : int;  (** nodes that participated *)
  ur_all_finished : bool;
  ur_cut : bool;
      (** the event bound stopped the run before the update reached its
          fix-point ({!System.quiescent} was [false] after it); the
          snapshots cannot tell, so the caller says *)
  ur_started : float;  (** earliest start across nodes *)
  ur_finished : float;  (** latest finish across nodes *)
  ur_duration : float;
      (** [ur_finished -. ur_started]; meaningless unless
          [ur_all_finished], because an unfinished node counts its
          start as its finish *)
  ur_data_msgs : int;
  ur_control_msgs : int;
  ur_bytes : int;  (** data bytes received, network-wide *)
  ur_new_tuples : int;
  ur_dup_suppressed : int;
  ur_nulls : int;
  ur_longest_path : int;
  ur_probes : int;
  ur_scans : int;
  ur_zvisited : int;  (** zone-map chunks consulted network-wide *)
  ur_zpruned : int;  (** zone-map chunks skipped network-wide *)
  ur_per_rule : (string * Stats.rule_traffic) list;
      (** summed per rule id, in rule-id order *)
}

val update_report :
  ?cut:bool -> Stats.snapshot list -> Ids.update_id -> update_report option
(** [None] when no snapshot mentions the update.  [cut] (default
    [false]) becomes {!field-ur_cut}. *)

val latest_update_report : Stats.snapshot list -> update_report option
(** The report of the most recently started update in the snapshots. *)

val pp_update_report : update_report Fmt.t
(** Prints the duration as unknown when some node did not finish, and
    a [cut:] line after it when {!field-ur_cut} is set. *)

(** {1 Wire behaviour} *)

val pp_wire_report : update_report Fmt.t
(** The propagation-layer view of one update: data messages and data
    volume — what the [wire] CLI surface reports. *)

(** {1 Constraint pushdown} *)

(** Network-wide view of one query's relevance-bounded diffusion: how
    many sub-requests carried constraints and how much the responders
    withheld before the wire — the E17 surface. *)
type pushdown_report = {
  pr_query : Ids.query_id;
  pr_pushed : int;  (** sub-requests that carried a non-trivial constraint *)
  pr_filtered_at_source : int;  (** derived tuples withheld before the wire *)
  pr_bytes_in : int;  (** answer bytes received, network-wide *)
  pr_data_msgs : int;
}

val pushdown_report : Stats.snapshot list -> Ids.query_id -> pushdown_report option

val pp_pushdown_report : pushdown_report Fmt.t

(** {1 Standing queries} *)

(** Network-wide aggregation of the subscription counters: how much
    standing-query maintenance cost (evaluator work, push traffic) and
    what it delivered — the [sub] CLI report. *)
type sub_report = {
  sr_registered : int;
  sr_rejected : int;
  sr_deltas_in : int;  (** store deltas fed to hosted subscriptions *)
  sr_deltas_out : int;  (** non-empty answer deltas delivered *)
  sr_push_msgs : int;  (** [Answer_delta] messages sent *)
  sr_adds : int;
  sr_retracts : int;
  sr_bytes : int;  (** push payload bytes, each push sized on its own *)
  sr_probes : int;  (** evaluator probes spent maintaining answers *)
  sr_scans : int;
  sr_zvisited : int;  (** zone-map chunks consulted during maintenance *)
  sr_zpruned : int;  (** zone-map chunks skipped during maintenance *)
  sr_torn_down : int;  (** subscriptions/mirrors lost to crashes *)
  sr_rearmed : int;  (** mirrors re-registered after a host restart *)
  sr_bytes_per_answer : float;  (** bytes / (adds + retracts), 0 if none *)
}

val sub_report : Stats.snapshot list -> sub_report

val pp_sub_report : sub_report Fmt.t

val pp_network : Stats.snapshot list Fmt.t
(** Full per-node dump, the super-peer's final report body. *)

(** {1 Fault tolerance} *)

(** Network-wide aggregation of the transport and partial-answer
    counters (the [chaos] CLI surface and bench E16). *)
type chaos_report = {
  chr_retransmits : int;
  chr_dup_suppressed : int;
  chr_give_ups : int;
  chr_query_timeouts : int;
  chr_partial_answers : int;
  chr_forced_terminations : int;
  chr_send_drops : int;
  chr_incomplete_queries : int;
      (** per-query records that finished flagged incomplete *)
  chr_forced_updates : int;  (** per-update records marked forced *)
  chr_recovered_records : int;  (** WAL records replayed at restarts *)
  chr_replayed_bytes : int;
      (** snapshot + log bytes consumed by recovery *)
  chr_refetched_bytes : int;
      (** post-restart bytes re-fetching once-held state *)
}

val chaos_report : Stats.snapshot list -> chaos_report

val pp_chaos_report : chaos_report Fmt.t
