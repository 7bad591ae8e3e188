(** Per-node, per-update protocol state.

    Tracks the paper's open/closed states of incoming and outgoing
    links, the per-incoming-link caches of already-sent tuples
    ({!Sent_filter}) and pending watermarks ({!Watermark}), and the
    Dijkstra–Scholten engagement bookkeeping (parent, deficit) used to
    detect global quiescence of cyclic components.  The rows an update
    imported are not kept here: {!Lineage}'s windows name the update
    that imported them ({!Lineage.hop_windows}). *)

module Peer_id = Codb_net.Peer_id

type link_state = Link_open | Link_closed

type live
(** The per-link and per-destination state: one record per link (its
    state, sent filter, prepared rule and pending watermark) and one
    per destination (transport settlement), in lists sized to the
    node's few links. *)

type t = {
  ust_update : Ids.update_id;
  ust_initiator : bool;
  ust_scoped : bool;
      (** query-dependent update: only explicitly activated links take
          part *)
  mutable ust_parent : Peer_id.t option;
      (** Dijkstra–Scholten engagement parent; [None] for the
          initiator or while disengaged *)
  mutable ust_engaged : bool;
  mutable ust_deficit : int;
      (** counted messages sent and not yet acknowledged; a message to
          the engagement parent is not counted (it owes no ack) *)
  mutable ust_live : live option;
      (** the update's link and destination records; [None] once it
          terminated ({!release}) *)
  mutable ust_terminated : bool;
      (** the update terminated here: the terminated flood reached
          this node, or its close to the parent reported its subtree
          done *)
  mutable ust_finished : bool;  (** local statistics were finalised *)
  mutable ust_activity : int;
      (** bumped on every protocol message for this update; the
          initiator's stall watchdog force-terminates only when a whole
          failure-deadline window passes with no movement *)
}

val create :
  initiator:bool ->
  ?scoped:bool ->
  outgoing:string list ->
  incoming:string list ->
  Ids.update_id ->
  t
(** The [outgoing]/[incoming] links start active (open).  A scoped
    update starts with empty lists; links join via {!activate_out} /
    {!activate_in}. *)

val touch : t -> unit
(** Note protocol activity (see [ust_activity]). *)

val out_state : t -> string -> link_state
(** Links never activated for this update read as closed: they carry
    no data, so nothing must wait for them. *)

val in_state : t -> string -> link_state

val is_active_in : t -> string -> bool
(** Was the incoming link ever activated (open or closed by now)? *)

val is_active_out : t -> string -> bool

val activate_out : t -> string -> unit

val activate_in : t -> string -> unit

val close_out : t -> string -> unit

val close_in : t -> string -> unit

val all_out_closed : t -> bool

val all_links_closed : t -> bool
(** Every incoming and outgoing link of the update is closed. *)

(** {2 Sent filters and prepared rules} *)

(** One of each per incoming link.  The filter holds the packed head
    rows already sent on the link: the projector filters against it and
    notes the survivors ({!Sent_filter.rows}).  The prepared rule
    ({!Codb_cq.Eval.prepare}) is the link's rule, planned once and
    projecting into the filter.  Both live until the update
    terminates. *)

val sent_filter : t -> string -> Sent_filter.t
(** The filter for one incoming link, created on first use. *)

val link_rule :
  t -> string -> make:(Sent_filter.t -> Codb_cq.Eval.prepared) -> Codb_cq.Eval.prepared
(** [link_rule st rule ~make] is the link's prepared rule, made by
    [make] from the link's filter on first use. *)

val sent_tracked : t -> string -> int
(** Exact entries currently tracked for the link (0 if never used or
    released). *)

(** {2 Pending watermarks} *)

val note_served : t -> string -> Watermark.pending -> unit
(** The link was served in this update, from the rows the mark
    counts. *)

val served : t -> string -> Watermark.pending option

val take_served : t -> string -> Watermark.pending option
(** Remove and return a link's pending mark (to commit it). *)

val take_all_served : t -> (string * Watermark.pending) list
(** Remove and return every pending mark. *)

val release : t -> unit
(** Drop every link and destination record: link states, sent filters
    and prepared rules,
    pending marks,
    transport settlement and the done subtrees.
    Called once the update terminates.  Every link then reads as
    closed and inactive, every in-flight count as empty, and writes are ignored, so a
    finished update keeps only its flags. *)

(** {2 Transport settlement}

    FIFO pipes made a close arrive after the data it covers for
    free.  Retransmission and injected jitter break that:
    a retried data message can land {e after} the close, and the
    importer would integrate it but no longer forward it.  Under the
    reliable transport the sender therefore counts in-flight data per
    destination and holds each close back until everything in front of
    it has settled.  The same count covers every message to the
    engagement parent: the disengagement acknowledgement waits until
    it is zero, so nothing the parent owes no ack for can arrive after
    that acknowledgement, and a later close to the parent waits behind
    the rows an earlier message carried. *)

val dst_unacked : t -> dst:Peer_id.t -> int

val incr_unacked : t -> dst:Peer_id.t -> unit

val decr_unacked : t -> dst:Peer_id.t -> unit
(** Clamped at zero (duplicate settlements are harmless). *)

val defer_close : t -> dst:Peer_id.t -> rule:string -> unit

val has_deferred_closes : t -> bool
(** Is any close still held back behind in-flight data?  The node
    owes those closes, so it must not disengage yet: a close sent
    after its disengagement would be counted by nobody upstream. *)

val take_deferred_closes : t -> dst:Peer_id.t -> string list
(** Drain the deferred closes for [dst] in defer order. *)

(** {2 Closes to the engagement parent}

    A close to the parent is held until the end of the handler that
    made it.  Then every held close leaves in one [Update_batch], with
    the rows of a lazy serve of each of their links and, if the node
    disengages, its acknowledgement ([carries_ack]). *)

val hold_close : t -> rule:string -> unit

val take_held_closes : t -> string list
(** Drain the held closes in hold order. *)

(** {2 Subtrees reported done}

    An acquaintance whose disengagement acknowledgement came in a
    message flagged [subtree_done] has closed every link of the update, and so
    has every node it engaged, recursively; that subtree touches the
    rest of the network only through the edge to this node, and
    terminated itself.  The terminated flood skips it. *)

val note_done : t -> Peer_id.t -> unit

val done_peers : t -> Peer_id.t list
(** Empty once released. *)
