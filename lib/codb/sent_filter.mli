(** Duplicate-suppression state for one incoming link: the paper's
    per-link cache of already-sent tuples ("we delete from Ri those
    tuples which have been already sent").  An exact set of packed head
    rows ({!Codb_relalg.Row.Table}), so a tuple counts as sent only if
    it really was and nothing is ever re-sent.  A query instance keeps
    one for its answer stream ([Query_state.qst_sent]), and its
    evaluations project into it.

    The cache is the head projection's dedup: the update algorithm
    hands {!rows} to {!Codb_cq.Eval.heads} and to the link's prepared
    rule ({!Codb_cq.Eval.prepare}), which note every surviving head in
    it and never copy or box a head already there.  A filter lives as
    long as its update: termination releases it with the rule
    ({!Update_state.release}).  It is never persisted: a
    recovered node that re-ships a tuple changes no store, because the
    importer drops what it already holds. *)

type t

val create : ?size:int -> unit -> t
(** [size] is the initial bucket hint (default 64); a query responder,
    one of thousands per query storm, starts small. *)

val rows : t -> unit Codb_relalg.Row.Table.t
(** The packed rows sent so far: the table the projector filters
    against and fills. *)

val elements : t -> Codb_relalg.Row.t list
(** The rows sent so far, sorted by {!Codb_relalg.Row.compare}. *)

val tracked : t -> int
(** Entries currently held. *)
