(** Cost-based join planning for conjunctive queries.

    The planner consumes per-atom access-path summaries — relation
    size, index availability, optional per-column distinct-value
    estimates — and produces an execution order.  It greedily picks
    the atom with the smallest estimated candidate count under the
    bindings accumulated so far (est = size / Π distinct(ground col)
    under the usual independence assumption, or a fixed per-column
    selectivity when no statistics are available), records which
    ground columns to probe through an index, and pushes every
    comparison predicate to the earliest step after which all its
    variables are bound. *)

type atom_info = {
  ai_atom : Atom.t;
  ai_size : int;  (** relation cardinality *)
  ai_indexed : bool;  (** can this access path serve composite probes? *)
  ai_distinct : (int -> int) option;
      (** distinct values per column, when the store tracks them *)
}

type step = {
  st_pos : int;  (** position of the atom in the original query body *)
  st_atom : Atom.t;
  st_probe : int list;
      (** argument positions ground at this step, to be served by an
          index probe; [[]] means scan *)
  st_est : float;  (** estimated candidate tuples per incoming binding *)
  st_comparisons : Query.comparison list;
      (** comparisons that become fully bound at this step *)
  st_ranges : (int * Query.comparison_op * Codb_relalg.Value.t) list;
      (** sargable order predicates, oriented as [cell op const] on an
          argument position whose variable first binds at this step;
          a zone-map-capable scan may use them to skip chunks (see
          {!Codb_relalg.Relation.packed_view}) *)
}

type t = {
  pl_steps : step list;
  pl_pre : Query.comparison list;
      (** variable-free comparisons, checked once before joining *)
  pl_unbound : Query.comparison list;
      (** comparisons never fully bound by any step: no substitution
          can satisfy them, so the query has no answers *)
}

val make : ?max_probe_cols:int -> atom_info list -> Query.comparison list -> t
(** [make infos comparisons] plans the body atoms described by [infos]
    (in query-body order) against the query's comparison predicates.
    [max_probe_cols] caps how many ground columns a probe may use
    (default unlimited); [~max_probe_cols:1] restricts the plan to
    single-column indexes — the ablation middle ground. *)

val order : t -> int list
(** Chosen atom order as positions into the original body. *)

val pp : t Fmt.t

val explain : Query.t -> t -> string
(** Human-readable plan description for the CLI [explain] command. *)
