(** A node's durable storage: one append-only log plus one snapshot
    slot, behind a record of closures so the in-memory and on-disk
    implementations are interchangeable.

    The WAL layer above frames and checksums everything it hands to
    [append_log] / [write_snapshot]; backends move bytes only. *)

type t = {
  append_log : string -> unit;
      (** append pre-framed bytes to the end of the log *)
  log_contents : unit -> string;  (** the whole log, for recovery *)
  reset_log : unit -> unit;
      (** truncate the log, called right after a successful snapshot *)
  write_snapshot : string -> unit;
      (** replace the snapshot atomically (the previous snapshot must
          survive a crash mid-write) *)
  read_snapshot : unit -> string option;  (** [None] before the first *)
  sync : unit -> unit;  (** flush to stable storage if applicable *)
}

val memory : unit -> t
(** Deterministic in-process backend for tests and benches.  Survives
    a simulated crash (the [t] outlives the node's volatile state) but
    not the process. *)

val prepare_dir : string -> (unit, string) result
(** Make sure [dir] is a directory, creating it (not its parents) if
    absent; [Error] with the reason when it is something else or
    cannot be created. *)

val file : fsync:bool -> dir:string -> node:string -> unit -> t
(** On-disk backend: [<dir>/<node>.wal] and [<dir>/<node>.snap],
    creating [dir] if needed.  Snapshots are written to a temp file
    and renamed into place; with [fsync] every write is flushed with
    [Unix.fsync] before returning.
    @raise Invalid_argument when {!prepare_dir} fails. *)
