(** The durability layer ({!Options.durability} = [Dur_wal]): WAL
    record and snapshot formats, commit-point logging hooks, and the
    recovery path that turns a backend's bytes back into live node
    state.

    The on-disk format reuses the compact wire codec
    ({!Codb_net.Codec}); framing and CRC protection live below in
    {!Codb_store}.  Everything durable is one {!record} format: a log
    record covers one commit point, and a snapshot is the compacted
    log, the records that rebuild the LDB relations, lineage tags,
    reliable-transport sequence state and dedup keys, the
    subscription registry and each mirror's registration (id, host,
    query).  Nothing of a
    running update is kept: the importer suppresses duplicates, so a
    recovered node that re-ships tuples changes no store.  Nor are a
    mirror's answers: a restart re-arms every recovered mirror against
    its host, which empties it, and the host's registration snapshot
    refills it.  Every logging hook is a no-op on nodes
    without a WAL, so the default configuration pays nothing. *)

module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row
module Backend = Codb_store.Backend
module Wal = Codb_store.Wal

type owner = Olocal | Oremote of Peer_id.t
    (** who registered a hosted subscription; a local client's
        callback cannot be persisted, so a recovered [Olocal]
        registration resumes with no callback *)

type record =
  | Insert of { rel : string; rows : Row.t list }
      (** a direct local write ({!System.insert_fact}), packed *)
  | Import of {
      rule : string;
      rel : string;
      hops : int;
      at : float;
      rows : Row.t list;
    }  (** rows an update integrated (packed), with their lineage *)
  | Seq_reserve of { upto : int }
      (** transport sequence numbers below [upto] may have been used *)
  | Sub_add of { sub_id : string; owner : owner; query_text : string }
  | Sub_remove of { sub_id : string }
  | Mirror_add of { sub_id : string; host : Peer_id.t; query_text : string }
  | Mirror_remove of { sub_id : string }
  | Seen_keys of { keys : string list }
      (** the transport's dedup keys; written by snapshots only, the
          one durable state no commit point logs *)

val encode_record : dict:Codb_net.Codec.Dict.sender -> record -> string
(** A marker byte plus the record with strings encoded incrementally
    against the log stream's dictionary — a string crosses the log once
    per compaction interval. *)

val decode_record : dict:(int, string) Hashtbl.t -> string -> record
(** [dict] is the replay mirror, built in record order from an empty
    table at the start of the log tail.
    @raise Codb_net.Codec.Malformed on corrupt input: a missing marker
    byte, an empty peer name, or an id [dict] lacks. *)

val encode_snapshot : Node.t -> string
(** The node's durable state as the records that rebuild it.  Layout
    v4: a version byte, then records laid out as {!encode_record} lays
    them out, back to back against one dictionary fresh for the
    snapshot, written in one pass straight from the store:
    - an [Import] per (relation, rule, hops, time) for the rows of
      the lineage windows ({!Lineage.windows}) with that import, each
      row once;
    - an [Insert] per relation (by name) for the rows outside every
      window;
    - [Seq_reserve] at the reservation's end and [Seen_keys], when
      the node has a transport relay;
    - a [Sub_add] per registry entry and a [Mirror_add] per mirror.
    Rows go in {!Row.compare} order and everything else sorted, so
    equal states produce byte-identical snapshots. *)

val decode_snapshot : string -> record list
(** Every record of a snapshot, in order.  {!recover} reads version 4
    only.
    @raise Codb_net.Codec.Malformed on any damage: a wrong version
    byte, or a record {!decode_record} would refuse. *)

(** {1 Commit-point hooks} — called by {!System}, {!Update},
    {!Sub_engine} and {!Reliable}; no-ops when [node.wal] is [None]. *)

val log_insert : Node.t -> rel:string -> Row.t list -> unit

val log_import :
  Node.t -> rule:string -> rel:string -> hops:int -> at:float -> Row.t list -> unit

val log_sub_add : Node.t -> sub_id:string -> owner:owner -> query_text:string -> unit

val log_sub_remove : Node.t -> sub_id:string -> unit

val log_mirror_add :
  Node.t -> sub_id:string -> host:Peer_id.t -> query_text:string -> unit

val log_mirror_remove : Node.t -> sub_id:string -> unit

val note_seq : Node.t -> int -> unit
(** Log a [Seq_reserve] when the allocated transport sequence number
    reaches the current reservation; reservations cover chunks of 64
    so the hot send path logs once per chunk. *)

val note_bulk_load : Node.t -> unit
(** A bulk store import bypassed the per-tuple hooks: snapshot now. *)

val snapshot_every : int
(** WAL records between two snapshots of a node. *)

val install : ?counters:Wal.counters -> Node.t -> backend:Backend.t -> Wal.t
(** Create and attach a fresh WAL whose snapshot callback serializes
    this node, taking a snapshot every {!snapshot_every} records.
    [counters] (default fresh) is the record it counts into; passing
    the same one to every incarnation of a node's WAL keeps its counts
    across crashes. *)

type recovery_stats = {
  rv_records : int;  (** intact log records replayed *)
  rv_replayed_bytes : int;  (** snapshot + log bytes consumed *)
  rv_truncated : bool;  (** the log tail was damaged and cut *)
  rv_had_snapshot : bool;
}

val recover :
  ?counters:Wal.counters -> Node.t -> Options.t -> backend:Backend.t -> recovery_stats
(** Rebuild the node from its backend: the latest valid snapshot's
    records (a snapshot that fails to decode anywhere is ignored
    whole), then the intact log tail (truncating at the first torn or
    corrupt record), both through one apply path; then a fresh
    transport relay seeded with the recovered sequence reservation and
    dedup keys, then a fresh WAL ({!install}, with [counters]) with an
    immediate compacting snapshot.  Expects the volatile state already reset
    ({!Node.reset_volatile}, {!Node.reset_store},
    {!Node.configure_subs}).  Credits {!Stats.note_recovery}. *)
