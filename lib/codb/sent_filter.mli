(** Duplicate-suppression state for one incoming link: the paper's
    per-link cache of already-sent tuples ("we delete from Ri those
    tuples which have been already sent").  An exact set, so
    {!already_sent} answers [true] only for a tuple that really was
    sent and nothing is ever re-sent. *)

type t

val create : unit -> t

val already_sent : t -> Codb_relalg.Tuple.t -> bool

val note_sent : t -> Codb_relalg.Tuple.t -> unit

val elements : t -> Codb_relalg.Tuple.t list
(** The tuples sent so far, sorted — what a durability snapshot
    records. *)

val tracked : t -> int
(** Entries currently held. *)
