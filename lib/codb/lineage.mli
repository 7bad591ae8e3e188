(** Tuple lineage: how did a tuple end up in a node's Local Database?

    Relations are append-only, and an update integrates its fresh rows
    as one contiguous run of row ids ({!Wrapper.integrate}), inserting
    only rows the store lacked.  So a stored row is imported at most
    once, and lineage is one {!window} per integration: the run of row
    ids, the coordination rule that delivered it, the length of its
    propagation path and the simulated arrival time — the per-tuple
    counterpart of the statistics module's aggregates, and the data
    behind the shell's [why] command.  Rows outside every window are
    the node's own base facts. *)

type import = {
  li_rule : string;  (** the outgoing link the tuple arrived on *)
  li_hops : int;  (** propagation path length *)
  li_at : float;  (** simulated arrival time *)
}

type origin =
  | Base  (** a declared fact or a local insert *)
  | Imported of import  (** delivered by an update *)

type window = {
  w_since : int;
  w_upto : int;  (** the relation's rows [w_since, w_upto) *)
  w_import : import;
  w_update : Ids.update_id option;
      (** the update that imported the rows; volatile, so a window
          replayed from the WAL belongs to no update ([None]) *)
}

type t

val create : unit -> t
(** Allocates no table: a relation's windows start on its first
    import. *)

val record : t -> rel:string -> ?update:Ids.update_id -> since:int -> upto:int -> import -> unit
(** Note that [rel]'s rows [since, upto) were just imported: the run
    starts at or past every earlier window's end.  An empty run is not
    recorded. *)

val windows : t -> rel:string -> window list
(** [rel]'s windows in row order: disjoint and ascending. *)

val hop_windows :
  t -> rel:string -> update:Ids.update_id -> from:int -> upto:int -> (int * int * int) list
(** [rel]'s rows [from, upto) cut into [(since, upto, hops)] windows in
    row order: the rows of each window were imported by [update] over
    [hops] hops, or not imported by it at all ([hops] 0).  Neighbours
    differ in [hops]; empty when [from >= upto]. *)

val clear : t -> unit
(** Forget everything (an honest crash destroys lineage too; recovery
    re-fills it from the snapshot and log). *)

val origin_of :
  store:Codb_relalg.Database.t -> t -> rel:string -> Codb_relalg.Tuple.t ->
  origin option
(** The window covering the tuple's row id, if any.  [None] when the
    tuple is not in the store at all. *)

val pp_origin : origin Fmt.t
