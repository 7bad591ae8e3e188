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

type integration = {
  since : int;
      (** the relation's row count before the insert: [fresh] are its
          rows from [since] on, the watermark {!eval_rule_delta} takes *)
  fresh : Tuple.t list;  (** tuples actually added (nulls instantiated) *)
  suppressed : int;  (** incoming tuples dropped as duplicates *)
  nulls_created : int;
}

val eval_query_full : ?sent:Sent_filter.t -> Database.t -> Query.t -> Tuple.t list
(** Evaluate a GLAV-style query (existential head allowed) and return
    its distinct head tuples, existential positions rendered as holes,
    sorted by {!Codb_relalg.Tuple.compare}.  Heads are projected packed
    ({!Codb_cq.Eval.heads}) and only the returned ones are boxed.  With
    [sent], a head already in the filter is dropped and every returned
    head is noted there: the filter is the projection's dedup.  Used
    directly by the query engine when constraint pushdown has
    specialized a rule's query ({!Codb_cq.Specialize}). *)

val eval_query_delta :
  ?sent:Sent_filter.t ->
  naive:bool ->
  ?delta:Tuple.t list ->
  Database.t ->
  Query.t ->
  delta_rel:string ->
  since:int ->
  Tuple.t list
(** Semi-naive counterpart of {!eval_query_full}; [since] is the
    watermark of {!Codb_cq.Eval.delta_answers}.  Without [delta], the
    delta is the stored rows of [delta_rel] from [since] on. *)

val eval_rule_full :
  ?opts:Options.t -> ?sent:Sent_filter.t -> Database.t -> Config.rule_decl -> Tuple.t list
(** {!eval_query_full} on a coordination rule's query.  [opts] is
    ignored: no option changes rule evaluation; the argument stays for
    the callers in [bench/e2e]. *)

val eval_rule_delta :
  ?sent:Sent_filter.t ->
  naive:bool ->
  ?delta:Tuple.t list ->
  Database.t ->
  Config.rule_decl ->
  delta_rel:string ->
  since:int ->
  Tuple.t list
(** Head tuples derivable using at least one tuple of [delta]
    (semi-naive), filtered through [sent] like {!eval_query_full}; the
    database must already contain the delta, as its rows from [since]
    on ({!integration.since}).  Without [delta], the delta is every
    row of [delta_rel] from [since] on: the rows a link's watermark
    has not covered yet ({!Watermark}). *)

val integrate :
  opts:Options.t -> rule_id:string -> Database.t -> rel:string -> Tuple.t list ->
  integration
(** The update algorithm's local step: suppress tuples already present
    (null-aware when [opts.use_subsumption_dedup]), instantiate holes
    with fresh marked nulls, insert the remainder. *)

val user_answers : Database.t -> Query.t -> Tuple.t list
(** Evaluate a user query (no existential head).  @raise
    Invalid_argument otherwise. *)
