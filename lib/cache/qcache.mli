(** The per-node semantic query-answer cache.

    Entries map a {e normalized} conjunctive query (canonical variable
    renaming, so alpha-variants share an entry) to the full answer set
    the query-time diffusion produced at this node, stamped with the
    update {!Epoch}s of the peers that contributed tuples.  A lookup
    can be answered three ways:

    - {e exact}: the normalized key is present;
    - {e by containment}: some cached query [qc] satisfies [q ⊆ qc]
      under the Chandra–Merlin test ({!Codb_cq.Containment}) {e and}
      [q] is answerable from [qc]'s answers alone — the cached answer
      set is treated as a relation and [q]'s extra restrictions are
      re-applied through {!Codb_cq.Eval}.  The answerability condition
      is syntactic (bodies isomorphic up to variable renaming, the
      extra comparisons and the head confined to [qc]'s head
      variables): sound by construction, conservative by design;
    - not at all: a miss, and the caller runs the paper's diffusion.

    Invalidation is lazy: entries whose stamp mentions a peer that has
    since moved to a later epoch are dropped by the first lookup that
    meets them; {!note_update} feeds the epoch view from the update
    protocol; epoch stamps are the only invalidation.  Capacity
    limits come from the underlying {!Lru}.

    A second table serves the responder side of constraint pushdown:
    entries keyed by [(rule, pushed constraints)] hold the full answer
    stream one coordination rule produced under those constraints.  A
    request whose constraints are {e subsumed} by a cached entry's
    (cached at least as weak) is served by re-filtering the cached
    answers — in particular an unconstrained entry serves every
    constrained request.  Both tables share the epoch tracker. *)

module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query
module Specialize = Codb_cq.Specialize
module Row = Codb_relalg.Row

type t

type hit_kind = Exact | By_containment

type hit = { answers : Row.t list; kind : hit_kind }
(** Answers packed, as stored: the root's answer set in
    {!Row.compare} order, or a responder's rule stream. *)

type counters = {
  hits_exact : int;
  hits_containment : int;
  misses : int;
  stores : int;
  epoch_invalidations : int;  (** entries dropped for a stale epoch stamp *)
  evictions : int;
  bytes_served : int;  (** answer bytes served from the cache *)
  entries : int;  (** live entries right now *)
  stored_bytes : int;  (** bytes held right now, both tables *)
  epoch_bumps : int;
  rule_hits_exact : int;
  rule_hits_containment : int;
      (** served by filtering a weaker-constrained entry *)
  rule_misses : int;
  rule_stores : int;
  rule_entries : int;  (** live rule-table entries right now *)
}

val create : ?max_entries:int -> ?max_bytes:int -> containment:bool -> unit -> t
(** Capacity semantics as in {!Lru.create}; [containment]
    enables hit-by-containment (disable for the E9 ablation). *)

val normalize : Query.t -> string
(** The canonical cache key: the query printed after renaming its
    variables in first-occurrence order. *)

val lookup : t -> Query.t -> hit option
(** Consult the cache; maintains all counters and drops invalid
    entries met along the way. *)

val store : t -> Query.t -> Row.t list -> sources:Peer_id.t list -> unit
(** Cache a completed query's answers, stamped with the current epochs
    of [sources] (the node itself plus the peers that contributed). *)

val note_update : t -> Peer_id.t list -> int
(** Bump the epoch view of the given peers (called when an update
    commits at this node; subsequent lookups drop dependent entries).
    Returns how many live entries this bump newly staled — the
    cache-churn attributable to the update, surfaced in
    {!Codb_core.Stats}. *)

val lookup_rule :
  t ->
  rule_id:string ->
  label:Peer_id.t list ->
  Specialize.t ->
  hit option
(** Consult the responder-side rule table.  Exact hit on the
    normalized [(rule_id, constraints)] key, else (when containment is
    enabled) any live same-rule entry whose constraints subsume the
    requested ones, its answers re-filtered by {!Specialize.matches}.
    Either way the entry's label must be a subset of [label]: the
    cached diffusion explored at least the sub-network this request
    may, so its stream is complete for it (extra tuples beyond the
    request's reach are still true answers). *)

val store_rule :
  t ->
  rule_id:string ->
  label:Peer_id.t list ->
  Specialize.t ->
  Row.t list ->
  sources:Peer_id.t list ->
  unit
(** Cache the complete answer stream a rule produced under
    [constraints] and [label], stamped with the current epochs of
    [sources]. *)

val answers_via_containment :
  cached:Query.t -> answers:Row.t list -> Query.t -> Row.t list option
(** The containment-hit core, exposed for tests: can [q] be answered
    from the cached pair, and with which tuples?  [None] when the
    containment or answerability condition fails. *)

val counters : t -> counters

val hit_ratio : counters -> float
(** Hits (both kinds) over lookups; 0 when no lookups happened. *)

val clear : t -> unit
(** Drop every entry (rules changed, stores reloaded, ...). *)
