(** A coDB node: identity, Database Schema, Local Database (or the
    Wrapper's temporary store on mediator nodes), coordination rules,
    statistics, and per-computation protocol state.

    This corresponds to the paper's first-level architecture
    (Figure 1): the P2P layer state lives here, the network side is in
    {!Codb_net.Network}, and the database operations are in
    {!Wrapper}. *)

module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Database = Codb_relalg.Database

type t = {
  node_id : Peer_id.t;
  mutable decl : Config.node_decl;
  mutable store : Database.t;
      (** the LDB, or the Wrapper's temporary store when
          [decl.mediator] *)
  mutable outgoing : Config.rule_decl list;
      (** rules this node uses to import data (it is the importer) *)
  mutable incoming : Config.rule_decl list;
      (** rules other nodes use to import from this node (it is the
          source) *)
  mutable acquaintances : Peer_id.t list;
      (** the far ends of [outgoing] and [incoming], each peer once,
          sorted; computed by {!set_rules} *)
  stats : Stats.t;
  lineage : Lineage.t;  (** how each stored tuple got here *)
  watermarks : Watermark.t;
      (** per incoming rule, the rows every head of which was
          delivered to the importer; cleared by {!reset_store},
          {!set_rules} and {!reset_volatile} *)
  updates : Update_state.t option Ids.Update_tbl.t;
      (** every value is [Some st], stored once by {!add_update_state}
          so that {!update_state} returns it without allocating *)
  query_instances : (string, Query_state.t) Hashtbl.t;
      (** keyed by this node's own instance reference *)
  sub_refs : (string, string) Hashtbl.t;
      (** sub-request reference -> owning instance reference *)
  mutable serial : int;
  mutable rules_version : int;
  mutable known_peers : Peer_id.Set.t;  (** filled by discovery *)
  seen_probes : (string, unit) Hashtbl.t;
      (** discovery probes already forwarded *)
  mutable relay : Relay.t option;
      (** reliable-transport state; [None] unless {!Options.reliable}
          (set by {!System.install_node}; stub runtimes in tests leave
          it unset and sends stay fire-and-forget) *)
  mutable subs : Codb_sub.Registry.t option;
      (** standing queries this node hosts; [None] unless
          {!Options.subscriptions} *)
  sub_mirrors : (string, Codb_sub.Mirror.t) Hashtbl.t;
      (** this node's own remote subscriptions, keyed by subscription
          id: the answer sets reconstructed from pushed deltas *)
  mutable wal : Codb_store.Wal.t option;
      (** this node's write-ahead log; [None] unless
          [Options.durability = Dur_wal] (installed by
          {!System.install_node}, replaced on recovery) *)
  wal_dict : Codb_net.Codec.Dict.sender;
      (** the WAL stream's incremental string dictionary: persists
          across log records, reset at every compaction so the log
          tail is always self-contained; it starts minimal, since only
          [Dur_wal] nodes fill it *)
  mutable wal_reserved : int;
      (** transport sequence numbers covered by the last logged
          [Seq_reserve] record; sequences below it need no new log
          record on allocation *)
  mutable track_refetch : bool;
      (** set after a restart: incoming update-data
          bytes count into [Stats.chaos.ch_refetched_bytes] until the
          run ends *)
}

val create : Config.node_decl -> t
(** Build the node and load its declared facts into the store. *)

val reset_store : t -> unit
(** A crash: replace the store with a fresh one holding only the
    declared facts, and clear the lineage and the watermarks.  Recovery
    (or re-fetching) must rebuild the rest. *)

val fresh_serial : t -> int

val fresh_ref : t -> string
(** A request reference unique across the network
    ([<node>/<serial>]). *)

val max_subscriptions : int
(** Subscriptions a node hosts; registration beyond it is refused
    with a reason, locally and over the wire. *)

val configure_subs : t -> Options.t -> unit
(** Install (or remove) the subscription registry according to
    [Options.subscriptions], capped at {!max_subscriptions}; called by
    {!System.install_node} and again on restart. *)

val mirrors_sorted : t -> (string * Codb_sub.Mirror.t) list
(** This node's remote-subscription mirrors in subscription-id order
    (deterministic re-arm and display). *)

val check_query : t -> Codb_cq.Query.t -> (unit, string) result
(** Can this node answer (or host a subscription to) the query?  An
    error names the body relations outside the node's schema, or an
    atom whose arity differs from its relation's, or else says why the
    query is ill-formed (existential head, unsafe comparison). *)

val set_rules :
  t -> outgoing:Config.rule_decl list -> incoming:Config.rule_decl list -> unit
(** Replace the coordination rules and recompute [acquaintances].
    Clears the watermarks (the links they describe may have
    changed). *)

val rule_out : t -> string -> Config.rule_decl option
(** Find one of this node's outgoing rules by id. *)

val rule_in : t -> string -> Config.rule_decl option

val update_state : t -> Ids.update_id -> Update_state.t option
(** Allocates nothing: the per-message lookup of the update protocol. *)

val add_update_state : t -> Update_state.t -> unit

val explain : t -> rel:string -> Codb_relalg.Tuple.t -> Lineage.origin option
(** Why does (or doesn't) the node hold this tuple?  [None]: absent;
    [Some Base]: the node's own fact; [Some (Imported _)]: the rules
    and paths that delivered it. *)

val reset_volatile : t -> unit
(** A crash: drop in-flight update/query instances, the watermarks,
    sub-request bookkeeping, probe dedup, hosted
    subscriptions, remote-subscription mirrors and buffered answer
    deltas (counted in [Stats.sub.sb_torn_down]); settle the relay's
    in-flight frames.
    The store, lineage and the relay itself are left to the caller
    ({!reset_store}, {!System.crash_node}). *)

val may_export : t -> bool
(** May this node contribute its own data to updates and queries?
    Per the paper's principle (d), an inconsistent node keeps routing
    but exports nothing.  A node with denial constraints evaluates
    them against the store, each search stopping at its first
    violation ({!Codb_cq.Eval.exists}), and records the verdict in the
    statistics module. *)
