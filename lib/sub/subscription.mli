(** One standing query and its incrementally maintained answer set.

    A subscription is a user conjunctive query (no existential head)
    whose answers a node keeps current as its store changes.  Instead
    of re-running the query on every write, the host feeds each
    per-relation store delta through {!Codb_cq.Eval.delta_heads} —
    the same semi-naive pass and head projector the update fix-point
    uses — so only answers of matches that touch the new tuples are
    derived.  Because coDB
    stores are monotone (tuples are never deleted), incremental
    maintenance only ever {e adds} answers; retractions appear only
    when a subscription is re-seeded from scratch (registration,
    re-arm after a crash) against a store that lost nothing but whose
    subscription state did.

    Constraint pushdown ({!Codb_cq.Specialize}) is reused as a
    {e prefilter}: a delta tuple of relation [r] that fails every
    constraint the query places on [r] cannot match any body atom over
    [r], so it cannot contribute a new substitution; dropping it
    before the join saves evaluator probes without changing the answer
    set. *)

module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Specialize = Codb_cq.Specialize
module Row = Codb_relalg.Row

type delta = {
  d_adds : Row.t list;  (** answers that became true *)
  d_retracts : Row.t list;  (** answers no longer derivable *)
  d_tag : string;
      (** provenance: which update/rule/hop produced the store change
          this answer delta reflects *)
}

val delta_is_empty : delta -> bool

type t

val create :
  ?pushdown:bool -> sub_id:string -> Query.t ->
  (t, string) result
(** Validate the query as a user query ({!Query.well_formed} without
    existential head) and precompute the per-relation prefilter
    constraints ([pushdown] off — the ablation — registers no
    prefilters).  The answer set starts empty; call {!refresh} to seed
    it. *)

val id : t -> string

val query : t -> Query.t

val reads : t -> string -> bool
(** Does the query body mention this relation? *)

val answers : t -> Row.t list
(** Current answer set, in {!Row.compare} order. *)

val answer_count : t -> int

val prefilter : t -> rel:string -> Row.t list -> Row.t list * int
(** Keep only delta rows that can contribute through some atom over
    [rel]; also returns how many were dropped. *)

val apply_delta :
  t ->
  source:Eval.source ->
  delta_rel:string ->
  since:int ->
  delta:Row.t list ->
  tag:string ->
  delta * int
(** Incremental maintenance: prefilter the store delta, run the
    semi-naive pass against [source], and fold the derived heads into
    the answer set.  [source] must already contain the delta tuples as
    its rows from [since] on, as {!Eval.delta_answers} requires;
    [since] is the watermark of the whole, unfiltered store delta.
    Returns the answer delta (adds only — new answers not previously
    known) and the number of prefiltered-away tuples. *)

val refresh : t -> source:Eval.source -> tag:string -> delta
(** From-scratch re-evaluation; the returned delta is the {e diff}
    against the previously known answers (used to seed a new
    subscription and to catch a re-armed one up). *)
