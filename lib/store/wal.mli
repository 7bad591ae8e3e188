(** A node's write-ahead log with periodic snapshot compaction.

    Append a record for every durable state change; every
    [snapshot_every] appends the log takes a full snapshot from its
    owner (the [take_snapshot] callback), writes it atomically and
    truncates the log.  Recovery returns the latest valid snapshot
    plus the intact log tail, truncating at the first torn or corrupt
    record instead of failing. *)

type counters = {
  mutable records_written : int;
  mutable bytes_written : int;  (** framed bytes appended to the log *)
  mutable snapshots_taken : int;
  mutable snapshot_bytes : int;  (** framed bytes of snapshots written *)
}

val fresh_counters : unit -> counters

type t

val create :
  ?counters:counters ->
  ?on_truncate:(unit -> unit) ->
  backend:Backend.t ->
  snapshot_every:int ->
  take_snapshot:(unit -> string) ->
  unit ->
  t
(** [counters] (default {!fresh_counters}) is the record this log
    counts into; a caller that outlives the log — a node's durability
    bookkeeping across crashes — passes the same record to every
    incarnation.  [on_truncate] fires right after every log truncation (the tail of
    {!snapshot_now}): callers keeping stream-level encoder state across
    records — the incremental record dictionary — reset it there so the
    new log tail decodes from scratch. *)

val append : t -> string -> unit
(** Frame, checksum and append one record; may trigger a snapshot. *)

val snapshot_now : t -> unit
(** Force a snapshot + log truncation (bulk loads, post-recovery
    compaction). *)

val counters : t -> counters

type recovery = {
  rec_snapshot : string option;
      (** latest snapshot payload, if one exists and its CRC holds *)
  rec_records : string list;
      (** intact log records appended after that snapshot, in order *)
  rec_truncated : bool;
      (** the log tail was damaged and cut (torn write / bit flip) *)
  rec_replayed_bytes : int;  (** bytes of snapshot + records consumed *)
}

val recover : backend:Backend.t -> recovery
(** Never raises: damage yields a shorter prefix, not a failure. *)
