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

    Two evaluation modes matter to the coDB algorithms:

    - full evaluation ({!answers}, {!heads}), used when a node first
      receives an update or query request and answers from its local
      data;
    - {e semi-naive} evaluation ({!delta_answers}, {!delta_heads}) used
      on every subsequent delta: given tuples [T'] that were just added
      to relation [R], it derives exactly the matches that use at least
      one tuple of [T'], the paper's "incoming links dependent on O are
      computed by substituting R by T'" step, generalised to be correct
      in the presence of self-joins.

    Each comes in two outputs: boxed substitutions ({!answers},
    {!delta_answers}), and head rows projected packed through a
    caller-supplied dedup table ({!heads}, {!delta_heads}), which is
    what the protocols use.  A caller that evaluates one rule on
    delta after delta prepares it once as a {!type:stream}. *)

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
(** Access paths by relation name.  Unknown relations must return an
    empty one ([rows_of_list []]). *)

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

val rows_of_list : Codb_relalg.Row.t list -> rows
(** Scan-only access path over a list of packed rows (used for deltas
    and frozen canonical databases): the rows are
    copied into one transient flat image, and the source is not
    [indexed], so the planner scans it.
    An empty list joins at any width; a list mixing widths shows each
    atom only the rows of its own width.  Row ids are list positions
    (among the rows of the view's width). *)

val of_database : Codb_relalg.Database.t -> source
(** Probing access paths backed by {!Codb_relalg.Relation}'s lazy,
    incrementally maintained hash indexes (at most 16 per relation). *)

val source_of_alist : (string * Codb_relalg.Row.t list) list -> source
(** Scan-only source over an association list. *)

val answers : ?max_probe_cols:int -> source -> Query.t -> Subst.t list
(** All substitutions of the body variables satisfying body atoms and
    comparisons.  The result may contain substitutions that project to
    the same head tuple; {!heads} projects and de-duplicates without
    building them.  [max_probe_cols] caps probe width (see
    {!Plan.make}). *)

val exists : source -> Query.t -> accept:(Subst.t -> bool) -> bool
(** Is there a substitution {!answers} would return that [accept]
    takes?  The search stops at the first one and keeps no other. *)

val plan_for : ?max_probe_cols:int -> source -> Query.t -> Plan.t
(** The plan {!answers} would execute — for the CLI [explain]
    subcommand and tests. *)

val delta_answers :
  ?naive:bool ->
  ?max_probe_cols:int ->
  source ->
  delta_rel:string ->
  since:int ->
  ?delta:Codb_relalg.Row.t list ->
  Query.t ->
  Subst.t list
(** Semi-naive evaluation after [delta] was appended to [delta_rel].
    The [source] must already reflect the insertion, and [since] is the
    relation's row count before it (the caller reads
    {!Codb_relalg.Relation.cardinal} before inserting).  If the query
    does not mention [delta_rel], the result is [[]].  Without
    [delta], the delta is every stored row of [delta_rel] from [since]
    on, read in place: a window over the stored cells that copies
    nothing, scanned like a row list (not [indexed], no zone maps).
    The protocols name their deltas that way: an incremental update
    the rows added since a link's watermark, and an integration the
    rows it just appended.

    The relation splits three ways.  {e old} is the rows below [since],
    read through {!Codb_relalg.Relation.packed_view}'s [pv_before]: a
    zero-copy, still-indexed prefix of the stored relation.  {e delta}
    is [delta], scanned as {!rows_of_list}, or else the stored window.
    {e full} is the relation as stored.  With [n] body atoms over
    [delta_rel], pass [k] binds occurrence [k] to delta, the earlier
    ones to old and the later ones to full, so every derivation that
    uses a delta tuple comes out exactly once.  Only a pass [k > 0] reads old: a body with two or
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

(** {2 The head projector}

    Rule heads stay packed from the join to the caller: each match
    writes the head's packed values into a scratch row (an existential
    head variable projects to [Intern.pack (Hole i)], [i] its position
    in {!Query.existential_head_vars}), and the row is kept only if it
    is absent from the table [into], which it then joins.  A match
    whose head row is already there allocates nothing.  The kept rows
    are returned packed ({!Codb_relalg.Row}), sorted by
    {!Codb_relalg.Row.compare}, which is {!Codb_relalg.Tuple.compare}'s
    order on the boxed forms.

    Passing a table that outlives the call makes it a dedup across
    calls: the update algorithm passes each incoming link's sent-cache
    ([Sent_filter] in [codb_core]), so a head already sent on the link is
    never copied.  Without [into], a fresh table de-duplicates within
    the call. *)

val heads :
  ?max_probe_cols:int ->
  ?into:unit Codb_relalg.Row.Table.t ->
  source ->
  Query.t ->
  Codb_relalg.Row.t list
(** Full form: the head rows of {!answers}' matches that [into] does
    not hold, distinct and sorted; they are added to [into]. *)

val delta_heads :
  ?naive:bool ->
  ?max_probe_cols:int ->
  ?into:unit Codb_relalg.Row.Table.t ->
  source ->
  delta_rel:string ->
  since:int ->
  ?upto:int ->
  ?delta:Codb_relalg.Row.t list ->
  Query.t ->
  Codb_relalg.Row.t list
(** Delta form: the same projection over {!delta_answers}' matches,
    through the same passes.  [upto] ends the stored delta window
    early: the rows from [upto] on are then read only where an atom
    reads full, so a derivation through one of them in an earlier
    occurrence comes out only from the window that holds it. *)

(** {2 Prepared delta streams}

    A node that evaluates the same rule on every batch a peer streams
    back (a query responder, a root with a listener) prepares the
    rule's semi-naive join once.  The first run plans each pass
    ({!Plan.make}, on the sizes it then sees) and compiles it for the
    head projector; every later run re-executes the compiled passes.
    The window bounds are read at run time: the views of the old rows
    and of the delta window read them at every access, and the live
    relation is read as it stands.  Each run projects straight into the
    table fixed at preparation, so a head the stream (or anything else
    writing that table) already produced is never copied again.

    Each body occurrence of [delta_rel] reads what {!delta_heads}
    reads: occurrence [k] the rows in [\[since, upto)], earlier ones
    the rows below [since], later ones the live relation, so self-joins
    stream too.  [~naive:true] compiles the full join once and re-runs
    it.  {!heads} and {!delta_heads} are the same compile, run once; a
    run's output does not depend on the plan, since the projector
    de-duplicates and sorts. *)

type stream
(** One rule's prepared semi-naive join over one delta relation, with
    its dedup table. *)

val delta_stream :
  ?naive:bool ->
  ?max_probe_cols:int ->
  into:unit Codb_relalg.Row.Table.t ->
  source ->
  delta_rel:string ->
  Query.t ->
  stream
(** Prepare [q]'s stream over [delta_rel]: nothing is planned until
    the first {!run_stream}.  [source] must keep serving the same
    relations (a database's views read it live). *)

val run_stream : since:int -> ?upto:int -> stream -> Codb_relalg.Row.t list
(** The heads derivable through at least one row of [delta_rel] in
    [\[since, upto)] that the stream's table does not hold yet,
    distinct and sorted; they are added to the table.  [since] obeys
    {!delta_answers}' contract. *)

val answer_rows :
  ?max_probe_cols:int -> source -> Query.t -> Codb_relalg.Row.t list
(** Evaluate a {e user} query: {!heads} with a fresh table.
    @raise Invalid_argument if the head has existential variables
    (GLAV rule heads go through {!heads}, which renders them as
    holes). *)

val certain : Codb_relalg.Tuple.t list -> Codb_relalg.Tuple.t list
(** The null-free (certain) answers among a list of answer tuples. *)
