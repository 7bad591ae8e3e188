(** The whole-network facade: build a coDB network from a
    configuration, run global updates and queries, read statistics.

    This module plays the role of the deployment scripts around the
    original system — everything inside it goes through the same
    message protocol the nodes use among themselves. *)

module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network
module Config = Codb_cq.Config
module Tuple = Codb_relalg.Tuple

type t

val build : ?opts:Options.t -> Config.t -> (t, string list) result
(** Validate the options ({!Options.validate}) and the configuration,
    make sure [opts.wal_dir] (if set) is a directory, creating it when
    absent, then create all nodes, load their facts, install
    coordination rules (and, unless [opts.query_cache = Cache_off], the
    per-node query-answer caches) and open the pipes between acquaintances. *)

val build_exn : ?opts:Options.t -> Config.t -> t
(** @raise Invalid_argument with the concatenated validation errors. *)

val opts : t -> Options.t

val net : t -> Payload.t Network.t

val link_dict_stats : t -> Codb_net.Link_dict.stats
(** Aggregate state of the per-link incremental string dictionaries
    that size every message ({!Payload.encoded_size} [~link]). *)

val config : t -> Config.t

val node : t -> string -> Node.t
(** @raise Not_found *)

val runtime : t -> string -> Runtime.t
(** @raise Not_found *)

val node_names : t -> string list
(** Sorted. *)

val run : ?max_events:int -> t -> int
(** Drain the event queue, processing at most [max_events] events
    (default 2 000 000); returns events processed. *)

val now : t -> float

(** {1 Global updates} *)

val start_update : t -> initiator:string -> Ids.update_id
(** Initiate a global update without running the simulation (compose
    with {!run} for concurrent scenarios). *)

val run_update : t -> initiator:string -> Ids.update_id
(** Initiate and run the network to quiescence (bounded as {!run}). *)

val start_scoped_update : t -> at:string -> rels:string list -> Ids.update_id
(** Initiate a query-dependent update (see {!Update.initiate_scoped})
    without running the simulation. *)

val run_scoped_update : t -> at:string -> Codb_cq.Query.t -> Ids.update_id
(** Materialise, at [at], exactly what the query needs (its body
    relations, transitively through the relevant coordination rules),
    then run to quiescence.  Afterwards {!local_answers} at [at]
    answers the query without network traffic. *)

(** {1 Query answering} *)

type query_outcome = {
  qo_id : Ids.query_id;
  qo_answers : Tuple.t list;
  qo_certain : Tuple.t list;
  qo_started : float;
  qo_finished : float;
  qo_data_msgs : int;
  qo_bytes : int;
  qo_complete : bool;
      (** [false]: some sub-request in the diffusion tree was declared
          failed, so [qo_answers] is an explicit lower bound (partial
          answer) rather than the query's full answer *)
}

val run_query :
  ?on_partial:(Tuple.t list -> unit) -> t -> at:string -> Codb_cq.Query.t ->
  query_outcome
(** Pose a query at a node and run the network to quiescence.
    [on_partial] streams answer batches as they become available
    (local answers first, remote ones as they arrive).
    @raise Failure if the diffusion does not complete (should not
    happen on a static network). *)

val local_answers : t -> at:string -> Codb_cq.Query.t -> Tuple.t list
(** Evaluate a query on the node's local store only (what the node
    answers after a global update without contacting anyone). *)

(** {1 Control plane} *)

val superpeer : t -> Superpeer.t
(** Created lazily on first use (with control pipes to all nodes). *)

val broadcast_rules : t -> Config.t -> unit
(** Have the super-peer broadcast a new rules file and run the network
    until the reconfiguration settles. *)

val collect_stats : t -> Stats.snapshot list
(** Message-based statistics collection through the super-peer. *)

val snapshots : t -> Stats.snapshot list
(** Direct (out-of-band) snapshot of every node's statistics. *)

val discover : t -> at:string -> ttl:int -> Peer_id.t list
(** Run a discovery probe and return the origin's known peers. *)

val crash_node : t -> string -> unit
(** Simulate a node crash: the handler is removed (messages to it drop
    at delivery time), its pipes close and its volatile protocol state
    is cleared.  The crash is honest: the store resets to the node's
    declaration and the transport state is gone, leaving only the
    declaration (and, under [Dur_wal], the WAL backend's bytes) for
    the restart.  @raise Not_found on an unknown node. *)

val restart_node : t -> string -> unit
(** Bring a crashed node back: clean volatile state, a fresh cache
    with a bumped epoch, the handler re-registered and the
    acquaintance (and super-peer) pipes reopened.  Under
    [Dur_volatile] the node then starts a fresh transport sequence
    epoch and issues a catch-up global update (clear-and-refetch);
    under [Dur_wal] it recovers store, lineage, transport sequence
    state, sent-filters and subscriptions from its snapshot and log
    tail ({!Durable.recover}), re-arms its mirrors and re-diffs its
    hosted subscriptions — no catch-up update, the reliable
    transport's retransmissions deliver the in-flight tail. *)

val add_node : t -> Config.node_decl -> unit
(** Dynamic arrival of a node (paper principle (c)).  @raise
    Invalid_argument on duplicate names. *)

val enable_trace : ?capacity:int -> t -> Trace.t
(** Attach (or return the existing) protocol trace: every message sent
    and delivered from now on is recorded with its simulated
    timestamp. *)

val trace : t -> Trace.t option

val export_stores : t -> (string * string) list
(** Every node's Local Database as a sectioned CSV document (see
    {!Codb_relalg.Csv.dump_database}), sorted by node name.  Marked
    nulls round-trip faithfully. *)

val import_stores : t -> (string * string) list -> (int, string) result
(** Load previously exported stores back into the (already built)
    network; returns the number of new tuples.  Every dump is parsed
    before any store changes: malformed data returns an [Error]
    naming the node and the line, and no node's store is touched.
    @raise Not_found on an unknown node. *)

val insert_fact : t -> at:string -> rel:string -> Tuple.t -> bool
(** Insert a fact into a node's Local Database through its Wrapper;
    [true] iff it was new.  The fact reaches the rest of the network
    on the next (global or scoped) update.  Any standing query at the
    node whose body reads [rel] absorbs the tuple incrementally.
    @raise Not_found / [Invalid_argument] on unknown node, relation,
    or schema mismatch. *)

(** {1 Standing queries}

    Available when [opts.subscriptions] is on; see {!Sub_engine} and
    {!Codb_sub} for the protocol.  All subscription state is volatile:
    a crash tears it down, and on restart the subscribers re-arm their
    mirrors automatically (see {!restart_node}). *)

val subscribe :
  t -> at:string -> ?on_delta:(Codb_sub.Subscription.delta -> unit) ->
  Codb_cq.Query.t -> (string, string) result
(** Register a standing query at a node for a local client; returns
    the subscription id.  The answer set seeds from the current store
    (delivered to [on_delta] as the ["seed"] delta) and is thereafter
    maintained incrementally from update and local-write deltas. *)

val unsubscribe : t -> at:string -> string -> bool

val subscribe_remote :
  t -> subscriber:string -> host:string ->
  ?on_delta:(Codb_sub.Subscription.delta -> unit) -> Codb_cq.Query.t ->
  (string, string) result
(** Subscribe [subscriber] to a standing query hosted at [host]; the
    returned id names the local mirror, which tracks the host's answer
    set through pushed [Answer_delta] messages (run the
    network to let the registration and seed delta propagate). *)

val unsubscribe_remote : t -> subscriber:string -> string -> bool

val subscription_answers : t -> at:string -> string -> Tuple.t list option
(** The current answer set of a subscription hosted at [at] or
    mirrored there, sorted; [None] if the id is unknown. *)

val mirror : t -> at:string -> string -> Codb_sub.Mirror.t option

val total_tuples : t -> int

(** {1 Durability} *)

type durability_report = {
  dr_wal_records : int;  (** log records appended, all nodes, all lives *)
  dr_wal_bytes : int;  (** framed log bytes written *)
  dr_snapshots : int;
  dr_snapshot_bytes : int;
  dr_recoveries : int;  (** WAL recoveries performed *)
  dr_recovered_records : int;  (** log records replayed by recoveries *)
  dr_replayed_bytes : int;  (** snapshot + log bytes consumed *)
  dr_recovery_ms : float;  (** wall-clock spent inside {!Durable.recover} *)
}

val durability_report : t -> durability_report
(** Aggregate WAL activity across the network, including counters from
    crashed WAL incarnations.  All zeroes unless
    [opts.durability = Dur_wal]. *)

val store_digest : t -> string -> int
(** Order-insensitive digest of one node's store
    ({!Codb_relalg.Database.digest}).  @raise Not_found *)

val store_digests : t -> (string * int) list
(** Every node's store digest, sorted by node name — the
    store-equivalence gate of the recovery experiments. *)
