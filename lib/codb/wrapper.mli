(** The Wrapper: the only component that touches a node's store.

    In the paper's architecture the Wrapper "manages connections to
    LDB and executes input database manipulation operations"; on
    mediator nodes (no LDB) it runs joins and projections itself on
    temporary relations.  In this reproduction both cases are served
    by the in-memory engine, so the Wrapper is a thin, explicit
    boundary: rule evaluation, delta evaluation, and the
    duplicate-suppressed integration step of the update algorithm. *)

module Tuple = Codb_relalg.Tuple
module Database = Codb_relalg.Database
module Config = Codb_cq.Config
module Query = Codb_cq.Query

module Row = Codb_relalg.Row

type integration = {
  since : int;
      (** the relation's row count before the insert: [fresh] are its
          rows from [since] on, the window a prepared rule reads *)
  fresh : Row.t list;  (** rows actually added (nulls instantiated) *)
  suppressed : int;  (** incoming rows dropped as duplicates *)
  nulls_created : int;
}

val eval_query_full : ?sent:Sent_filter.t -> Database.t -> Query.t -> Row.t list
(** Evaluate a GLAV-style query (existential head allowed) and return
    its distinct head rows, packed, existential positions as holes,
    sorted by {!Codb_relalg.Row.compare} ({!Codb_cq.Eval.heads}).
    With [sent], a head already in the filter is dropped and every
    returned head is noted there: the filter is the projection's
    dedup.  The update and query protocols answer their links with
    it. *)

val prepare : sent:Sent_filter.t -> naive:bool -> Database.t -> Query.t -> Codb_cq.Eval.prepared
(** The semi-naive counterpart of {!eval_query_full}, prepared once
    ({!Codb_cq.Eval.prepare}): each {!Codb_cq.Eval.run} returns the
    heads derivable using at least one row of a window of the store,
    projected into [sent].  The window is the rows an integration just
    appended ({!integration.since}), or the rows a link's watermark has
    not covered yet ({!Watermark}), cut where the hops of the imported
    rows change.  The database must stay the one it reads. *)

val eval_rule_full :
  ?opts:Options.t -> ?sent:Sent_filter.t -> Database.t -> Config.rule_decl -> Tuple.t list
(** {!eval_query_full} on a coordination rule's query, boxed: for
    callers outside the data path (the e2e gates in [bench/e2e], which
    also pass [opts], and tests).  [opts] is ignored: no option changes
    rule evaluation. *)

val integrate :
  opts:Options.t -> rule_id:string -> Database.t -> rel:string -> Row.t list ->
  integration
(** The update algorithm's local step on packed rows, in one pass
    that builds no list but [fresh].  A ground row is inserted, and the
    row index drops it if it is already stored.  A row with holes is
    dropped when a row stored before the call subsumes it (only when
    [opts.use_subsumption_dedup]: {!Codb_relalg.Relation.subsumed_row}
    [~below:since]); otherwise it is copied with fresh marked nulls in
    place of its holes (a received row is shared with its sender's
    sent filter, so it is never changed in place) and inserted. *)

val user_answers : Database.t -> Query.t -> Row.t list
(** Evaluate a user query (no existential head): its answers, packed,
    in {!Codb_relalg.Row.compare} order.  @raise Invalid_argument
    otherwise. *)
