(** Constraint pushdown for relevance-bounded query diffusion.

    A requester that needs tuples of relation [r] from an acquaintance
    knows more than "[r], please": its own query (or the already
    specialized rule it is serving) reads [r] through specific atoms
    whose constant positions, repeated variables and comparison
    predicates bound which tuples can possibly contribute to an
    answer.  This module computes that knowledge as a {e constraint
    set} over the columns of the requested relation, applies it as a
    filter at the data source, and folds it into a responder's own
    rule evaluation and fan-out so constraints compose transitively
    along the diffusion tree (the semi-join / magic-sets move).

    {2 Semantics}

    A constraint is interpreted against wire tuples, which may carry
    marked nulls and holes (existential placeholders that the
    requester will instantiate into fresh nulls).  {!matches} is
    {e requester-faithful}: it keeps a tuple exactly when the
    requester's own matching ({!Query.eval_comparison_op} plus
    {!Codb_relalg.Value.equal}) could still use it after hole
    instantiation — a hole compares like the fresh null it will
    become (equal only to the same hole of the same tuple, order
    comparisons unknown-false, [!=] against anything else true).
    Filtering at the source therefore never changes the answer set.

    Positions are {e unpushable} into a rule body when the rule head
    carries an existential variable there: the produced value is a
    fresh null about which the body knows nothing.  But the verdict of
    any comparison against such a position is already decided by the
    null semantics above — a fresh null equals only itself — so
    {!specialize_rule} resolves those predicates outright: [!=]
    against anything else is trivially true (dropped), everything else
    is trivially false (the whole rule is [`Unsatisfiable] and need
    not run).  The output filter still applies the full constraint
    soundly either way. *)

module Value = Codb_relalg.Value

type operand =
  | Col of int  (** value at this column of the candidate tuple *)
  | Const of Value.t

type pred = { p_left : operand; p_op : Query.comparison_op; p_right : operand }

type t =
  | Any  (** unconstrained: every tuple is relevant *)
  | One_of of pred list list
      (** disjunction of conjunctions, one conjunct per atom through
          which the requester reads the relation; [One_of []] is
          provably empty (no tuple can contribute) *)

val any : t

val is_any : t -> bool

val pred_count : t -> int
(** Total predicates across all alternatives. *)

val of_query : Query.t -> rel:string -> t
(** The strongest pushable constraint on tuples of [rel] derived from
    how [q] reads it: per-column constants, repeated-variable
    equalities, and comparisons whose variables all occur within the
    atom.  [Any] when some atom over [rel] is unconstrained, when [q]
    does not read [rel] at all (conservative: the caller may route
    data we cannot see through), or when the constraint would exceed
    16 predicates (bounding request size). *)

val matches : t -> Codb_relalg.Row.t -> bool
(** Requester-faithful filter on a packed row; see the module
    preamble.  Each compared cell is read as its canonical value, and
    the row is not boxed.  Malformed predicates (column beyond the
    row's arity) conservatively keep the row. *)

val specialize_rule : t -> Query.t -> [ `Unsatisfiable | `Specialized of Query.t | `Unchanged ]
(** Fold a constraint on the rule's {e head tuples} into the rule
    query itself, so the responder evaluates a smaller join instead of
    filtering after the fact: equality predicates that map through
    non-existential head variables become constant substitutions
    (ground columns the planner probes), other mappable predicates
    become extra comparisons.  Predicates on existential head
    positions are decided in place: a hole co-refers with itself,
    differs from everything else, and defeats order comparisons — so
    e.g. an [=] against a constant there refutes the whole rule.
    [`Unsatisfiable] when any decided or pushable predicate is
    contradictory — no head tuple can pass the output filter, so the
    rule need not run (and need not fan out) at all.  [`Unchanged] for
    [Any], for multi-alternative constraints (the output filter alone
    handles disjunctions) and when nothing maps through the head.
    Out-of-range columns are skipped, never dropped from the output
    filter. *)

val normalize : t -> t
(** Canonical order: predicates sorted and de-duplicated within each
    alternative, alternatives sorted and de-duplicated. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
