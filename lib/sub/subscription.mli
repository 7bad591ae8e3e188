(** One standing query and its incrementally maintained answer set.

    A subscription is a user conjunctive query (no existential head)
    whose answers a node keeps current as its store changes.  Instead
    of re-running the query on every write, it holds the query as a
    prepared rule ({!Codb_cq.Eval.prepare}) whose dedup table is its
    answer set, and the host runs it on each per-relation store window,
    the same semi-naive step the update fix-point runs: only answers of
    matches that touch the new rows are derived, and only those the set
    lacks come out.  Because coDB stores are monotone (tuples are never
    deleted), incremental maintenance only ever {e adds} answers;
    retractions appear only when a subscription is re-seeded from
    scratch (registration, re-arm after a crash) against a store that
    lost nothing but whose subscription state did. *)

module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
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

val create : sub_id:string -> source:Eval.source -> Query.t -> (t, string) result
(** Validate the query as a user query ({!Query.well_formed} without
    existential head) and prepare it over [source], the host's store.
    The answer set starts empty; call {!refresh} to seed it. *)

val id : t -> string

val query : t -> Query.t

val reads : t -> string -> bool
(** Does the query body mention this relation? *)

val answers : t -> Row.t list
(** Current answer set, in {!Row.compare} order. *)

val answer_count : t -> int

val apply_delta : t -> delta_rel:string -> since:int -> upto:int -> tag:string -> delta
(** Incremental maintenance: run the prepared rule on the store's
    [delta_rel] rows in [\[since, upto)], which it already holds
    ({!Codb_cq.Eval.run}'s contract on [since]).  Returns the answer
    delta: adds only, the answers the set did not hold, which it now
    does. *)

val refresh : t -> tag:string -> delta
(** From-scratch re-evaluation; the returned delta is the {e diff}
    against the previously known answers (used to seed a new
    subscription and to catch a re-armed one up). *)
