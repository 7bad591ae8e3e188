(** Evaluation of conjunctive queries over a tuple source.

    The evaluator is decoupled from {!Codb_relalg.Database} through the
    {!type:source} abstraction so that the same code runs over local
    databases, per-query overlays, and the Wrapper's temporary stores
    on mediator nodes.

    Every join runs one way: {!Plan.make} orders the atoms by
    estimated selectivity, picks the ground column sets to probe
    through composite hash indexes and places each comparison at its
    earliest ground step; the plan then executes on packed ints
    ({!Codb_relalg.Relation.packed_view}) — int-slot substitutions,
    row-id candidate sets, packed probes, and scans that skip the
    chunks whose zone maps rule out the plan's constant and order
    predicates.

    Two entry points matter to the coDB algorithms:

    - {!answers} — full evaluation, used when a node first receives an
      update or query request and answers from its local data;
    - {!delta_answers} — {e semi-naive} evaluation used on every
      subsequent delta: given tuples [T'] that were just added to
      relation [R], it derives exactly the substitutions that use at
      least one tuple of [T'], the paper's "incoming links dependent on
      O are computed by substituting R by T'" step, generalised to be
      correct in the presence of self-joins. *)

type rows = {
  size : int;  (** cardinality, for the planner's cost model *)
  indexed : bool;
      (** can [packed] serve composite probes cheaply?  [false]
          keeps the planner from probing (a row list scans) *)
  distinct : (int -> int) option;
      (** per-column distinct-value estimate for the planner's
          selectivity model *)
  packed : int -> Codb_relalg.Relation.packed_view;
      (** [packed k] is the packed view an atom of [k] arguments joins
          against: exactly the relation's tuples that have [k] columns,
          as a view of width [k].  An atom whose width disagrees with
          the stored relation's therefore matches nothing. *)
}
(** Access path to one relation's tuples.  There is no boxed access:
    the evaluator only ever reads packed views. *)

type source = string -> rows
(** Access paths by relation name.  Unknown relations must return
    {!empty_rows}. *)

type counters = {
  mutable probes : int;  (** candidate sets served by an index probe *)
  mutable scans : int;  (** candidate sets served by a full scan *)
  mutable planned : int;  (** joins executed through a cost-based plan *)
  mutable zone_visited : int;
      (** chunks a zone-mapped scan actually walked (pruned excluded) *)
  mutable zone_pruned : int;  (** chunks skipped outright by zone-map bounds *)
}
(** Evaluator work.  One process-wide record counts every evaluation
    (monotonic since {!reset_counters}); each protocol layer keeps its
    own record of the same type for the share it caused.  Callers
    wanting per-evaluation numbers copy before and after, like
    [Value.null_counter]. *)

val zero_counters : unit -> counters
(** A fresh all-zero record. *)

val counters : unit -> counters
(** A copy of the process-wide record: later evaluations leave it
    unchanged. *)

val reset_counters : unit -> unit

val empty_rows : rows

val rows_of_list : Codb_relalg.Tuple.t list -> rows
(** Scan-only access path over a list (used for deltas and frozen
    canonical databases): the rows are packed into a transient columnar
    image, and the source is not [indexed], so the planner scans it.
    An empty list joins at any width; a list mixing widths shows each
    atom only the rows of its own width.  Row ids are list positions
    (among the rows of the view's width). *)

val of_database : Codb_relalg.Database.t -> source
(** Probing access paths backed by {!Codb_relalg.Relation}'s lazy,
    incrementally maintained hash indexes (at most 16 per relation). *)

val source_of_alist : (string * Codb_relalg.Tuple.t list) list -> source
(** Scan-only source over an association list. *)

val answers : ?max_probe_cols:int -> source -> Query.t -> Subst.t list
(** All substitutions of the body variables satisfying body atoms and
    comparisons.  The result may contain substitutions that project to
    the same head tuple; projection and de-duplication are the
    caller's business (see {!Apply}).  [max_probe_cols] caps probe
    width (see {!Plan.make}). *)

val plan_for : ?max_probe_cols:int -> source -> Query.t -> Plan.t
(** The plan {!answers} would execute — for the CLI [explain]
    subcommand and tests. *)

val delta_answers :
  ?naive:bool ->
  ?max_probe_cols:int ->
  source ->
  delta_rel:string ->
  since:int ->
  delta:Codb_relalg.Tuple.t list ->
  Query.t ->
  Subst.t list
(** Semi-naive evaluation after [delta] was appended to [delta_rel].
    The [source] must already reflect the insertion, and [since] is the
    relation's row count before it (the caller reads
    {!Codb_relalg.Relation.cardinal} before inserting).  If the query
    does not mention [delta_rel], the result is [[]].

    The relation splits three ways.  {e old} is the rows below [since],
    read through {!Codb_relalg.Relation.packed_view}'s [pv_before]: a
    zero-copy, still-indexed prefix of the stored relation.  {e delta}
    is [delta], packed as {!rows_of_list}.  {e full} is the relation
    as stored.  With [n] body atoms over [delta_rel], pass [k] binds
    occurrence [k] to delta, the earlier ones to old and the later ones
    to full, so every derivation that uses a delta tuple comes out
    exactly once.  Only a pass [k > 0] reads old: a body with two or
    more atoms over [delta_rel].

    The contract on [since]: old must not overlap [delta] (or each
    derivation through an overlapping tuple comes out twice), and must
    hold every pre-insertion row (or derivations are lost).  The rows
    from [since] on may include tuples outside [delta] only if they
    match no atom over [delta_rel] — as when a subscription's prefilter
    drops part of a store delta but passes the watermark of the whole
    delta.

    Nothing here boxes or copies the relation: old is a view of a few
    words, so a body with one atom over [delta_rel] costs the delta.  A
    pass that reads old reads it like a stored relation, through its
    indexes or by a scan that stops at [since].

    With [~naive:true] (ablation) the query is instead re-evaluated
    from scratch with {!answers} — correct but wasteful, and the
    baseline of experiment E8; [since] is then unused. *)

val answer_tuples :
  ?max_probe_cols:int -> source -> Query.t -> Codb_relalg.Tuple.t list
(** Evaluate a {e user} query: project the answers on the head and
    de-duplicate.  @raise Invalid_argument if the head has existential
    variables (use {!Apply.head_tuples} for GLAV rule heads). *)

val certain : Codb_relalg.Tuple.t list -> Codb_relalg.Tuple.t list
(** The null-free (certain) answers among a list of answer tuples. *)
