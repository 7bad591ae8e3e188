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
    - {e semi-naive} evaluation, used on every later delta: given the
      rows just appended to relation [R], it derives exactly the
      matches that use at least one of them, the paper's "incoming
      links dependent on O are computed by substituting R by T'" step,
      generalised to be correct in the presence of self-joins.  It has
      one entry, a {!type:prepared} rule: the update path keeps one per
      incoming link, a query instance one for its rule, and a standing
      query one for its answer set.

    Full evaluation comes in two outputs: boxed substitutions
    ({!answers}), and head rows projected packed through a
    caller-supplied dedup table ({!heads}), which is what the protocols
    use.  A prepared rule projects the same way. *)

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
  mutable matches : int;
      (** matches a join handed its consumer, before the head projector
          de-duplicates: a semi-naive run's count is its derivations *)
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
(** Scan-only access path over a list of packed rows (used for frozen
    canonical databases): the rows are
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

(** {2 The head projector}

    Rule heads stay packed from the join to the caller: each match
    writes the head's packed values into a scratch row (an existential
    head variable projects to [Intern.pack (Hole i)], [i] its position
    in {!Query.existential_head_vars}), and the row is kept only if it
    is absent from the table [into], which it then joins.  A match
    whose head row is already there allocates nothing.  The kept rows
    are returned packed ({!Codb_relalg.Row}), distinct and sorted by
    {!Codb_relalg.Row.compare}, which is {!Codb_relalg.Tuple.compare}'s
    order on the boxed forms.

    The kept rows collect in a head buffer: a growable array that a
    prepared rule owns across its runs (a {!heads} call owns one for the
    call), merge-sorted in place through a scratch array of the same
    capacity.  Once warm it allocates nothing, so a run allocates per
    head only the row, its entry in [into] and its cons in the output;
    the buffer is cleared after each run and pins no row.

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
    not hold, distinct and in {!Codb_relalg.Row.compare} order; they
    are added to [into].  The call owns its head buffer. *)

(** {2 Prepared rules}

    A caller that evaluates one rule on delta after delta prepares it
    once, with the table it projects into.  A run names its delta by a
    window of stored rows: [delta_rel]'s rows in [\[since, upto)], read
    in place (a window over the stored cells that copies nothing,
    scanned like a row list: not [indexed], no zone maps).  The
    protocols name their deltas that way: an incremental update the rows
    added since a link's watermark, an integration the rows it just
    appended, a local write its one row.

    The relation splits three ways.  {e old} is the rows below [since],
    read through {!Codb_relalg.Relation.packed_view}'s [pv_before]: a
    zero-copy, still-indexed prefix of the stored relation.  {e delta}
    is the window.  {e full} is the relation as stored.  With [n] body
    atoms over [delta_rel], pass [k] binds occurrence [k] to delta, the
    earlier ones to old and the later ones to full, so every derivation
    that uses a delta row comes out exactly once.  Only a pass [k > 0]
    reads old: a body with two or more atoms over [delta_rel].  A rule
    that does not mention [delta_rel] derives nothing.

    The contract on [since]: the source must already hold the window's
    rows, old must not overlap the window (or each derivation through an
    overlapping row comes out twice), and must hold every earlier row
    (or derivations are lost).  [upto] ends the window early: the rows
    from [upto] on are then read only where an atom reads full, so a
    derivation through one of them in an earlier occurrence comes out
    only from the window that holds it.

    Nothing here boxes or copies the relation: old is a view of a few
    words, so a body with one atom over [delta_rel] costs the delta.  A
    pass that reads old reads it like a stored relation, through its
    indexes or by a scan that stops at [since].

    The rule keeps one stream per delta relation: the passes, planned
    once ({!Plan.make}) and compiled for the head projector at its
    first run.  The planner reads the body relations' sizes then and
    sees the window as one row, whatever its size: later windows are
    mostly a few rows, so the plan drives the join from the window and
    probes the rest.  Later runs re-execute the passes; the window
    bounds and the live relations are read at run time.  A run's output
    does not depend on the plan, since the projector de-duplicates and
    sorts.

    With [~naive:true] (ablation) each run instead re-evaluates the
    full join, projected into the same table: correct but wasteful, and
    the baseline of experiment E8; the window is then unused. *)

type prepared
(** One rule's semi-naive join, with the table it projects into and
    the head buffer its runs sort in. *)

val prepare :
  ?naive:bool -> into:unit Codb_relalg.Row.Table.t -> source -> Query.t -> prepared
(** Prepare [q] over [source]: nothing is planned until the first
    {!run}, and the head buffer grows at the runs that need it.  [source] must keep serving the same relations (a
    database's views read it live); a head the rule (or anything else
    writing [into]) already produced is never copied again. *)

val run :
  ?query:Query.t ->
  delta_rel:string ->
  since:int ->
  ?upto:int ->
  prepared ->
  Codb_relalg.Row.t list
(** The heads derivable through at least one row of [delta_rel] in
    [\[since, upto)] that the table does not hold yet, distinct and in
    {!Codb_relalg.Row.compare} order; they are added to the table.  They
    are sorted in the rule's own head buffer, reused run after run.  [query] is the rule to run
    when it may have changed since the rule was prepared (a rules file
    replaced during an update or a query): a different rule drops the
    streams and runs from then on, into the same table, so no stale
    rule runs. *)

val answer_rows :
  ?max_probe_cols:int -> source -> Query.t -> Codb_relalg.Row.t list
(** Evaluate a {e user} query: {!heads} with a fresh table.
    @raise Invalid_argument if the head has existential variables
    (GLAV rule heads go through {!heads}, which renders them as
    holes). *)

val certain : Codb_relalg.Tuple.t list -> Codb_relalg.Tuple.t list
(** The null-free (certain) answers among a list of answer tuples. *)
