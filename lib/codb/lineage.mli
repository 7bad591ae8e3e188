(** Tuple lineage: how did a tuple end up in a node's Local Database?

    Every tuple an update integrates is recorded with the coordination
    rule that delivered it, the length of its propagation path, and
    the simulated arrival time — the per-tuple counterpart of the
    statistics module's aggregates, and the data behind the shell's
    [why] command.  Tuples without a record are the node's own base
    facts. *)

type import = {
  li_rule : string;  (** the outgoing link the tuple arrived on *)
  li_hops : int;  (** propagation path length *)
  li_at : float;  (** simulated arrival time *)
}

type origin =
  | Base  (** a declared fact or a local insert *)
  | Imported of import list
      (** delivered by updates, possibly over several routes *)

type t

val create : unit -> t

val record_import : t -> rel:string -> Codb_relalg.Row.t -> import -> unit
(** Note one import of a stored row (packed, as the update integrates
    it; the row is kept as a key, so it must not be mutated). *)

val imported : t -> rel:string -> Codb_relalg.Row.t -> bool
(** Does the row have an import on record?  Apply to [rel] once and
    test many rows: the relation's table is looked up once. *)

val imports : t -> rel:string -> Codb_relalg.Tuple.t -> import list
(** Oldest first; empty for base facts. *)

val all : t -> ((string * Codb_relalg.Row.t) * import list) list
(** Every recorded entry in (relation, row) order, rows by
    {!Codb_relalg.Row.compare} — what the durability layer groups into
    a snapshot's import records. *)

val clear : t -> unit
(** Forget everything (an honest crash destroys lineage too; recovery
    re-fills it from the snapshot and log). *)

val origin_of :
  store:Codb_relalg.Database.t -> t -> rel:string -> Codb_relalg.Tuple.t ->
  origin option
(** [None] when the tuple is not in the store at all. *)

val pp_origin : origin Fmt.t
