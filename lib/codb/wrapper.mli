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
  fresh : Tuple.t list;  (** tuples actually added (nulls instantiated) *)
  suppressed : int;  (** incoming tuples dropped as duplicates *)
  nulls_created : int;
}

val eval_query_full : Database.t -> Query.t -> Tuple.t list
(** Evaluate a GLAV-style query (existential head allowed) and return
    its head tuples, existential positions rendered as holes.  Used
    directly by the query engine when constraint pushdown has
    specialized a rule's query ({!Codb_cq.Specialize}). *)

val eval_query_delta :
  naive:bool ->
  Database.t ->
  Query.t ->
  delta_rel:string ->
  delta:Tuple.t list ->
  Tuple.t list
(** Semi-naive counterpart of {!eval_query_full}. *)

val eval_rule_full :
  ?opts:Options.t -> Database.t -> Config.rule_decl -> Tuple.t list
(** Evaluate a coordination rule's body over the database and return
    the head tuples, existential positions rendered as holes.  [opts]
    is ignored: no option changes rule evaluation; the argument stays
    for the callers in [bench/e2e]. *)

val eval_rule_delta :
  naive:bool ->
  Database.t ->
  Config.rule_decl ->
  delta_rel:string ->
  delta:Tuple.t list ->
  Tuple.t list
(** Head tuples derivable using at least one tuple of [delta]
    (semi-naive); the database must already contain the delta. *)

val integrate :
  opts:Options.t -> rule_id:string -> Database.t -> rel:string -> Tuple.t list ->
  integration
(** The update algorithm's local step: suppress tuples already present
    (null-aware when [opts.use_subsumption_dedup]), instantiate holes
    with fresh marked nulls, insert the remainder. *)

val user_answers : Database.t -> Query.t -> Tuple.t list
(** Evaluate a user query (no existential head).  @raise
    Invalid_argument otherwise. *)
