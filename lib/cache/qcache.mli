(** The per-node semantic query-answer cache.

    Entries map a {e normalized} conjunctive query (canonical variable
    renaming, so alpha-variants share an entry) to the full answer set
    the query-time diffusion produced at this node, stamped with the
    update {!Epoch}s of the peers that contributed tuples.  One table
    serves a lookup two ways, in this order:

    - {e exact}: the normalized key is present;
    - {e by containment}: some cached query [qc] satisfies [q ⊆ qc]
      under the Chandra–Merlin test ({!Codb_cq.Containment}) {e and}
      [q] is answerable from [qc]'s answers alone — the cached answer
      set is treated as a relation and [q]'s extra restrictions are
      re-applied through {!Codb_cq.Eval}.  The answerability condition
      is syntactic (bodies isomorphic up to variable renaming, the
      extra comparisons and the head confined to [qc]'s head
      variables): sound by construction, conservative by design.

    Otherwise the lookup misses, and the caller runs the paper's
    diffusion.

    Invalidation is lazy: entries whose stamp mentions a peer that has
    since moved to a later epoch are dropped by the first lookup that
    meets them; {!note_update} feeds the epoch view from the update
    protocol and from the node's own writes; epoch stamps are the only
    invalidation.  An entry is therefore fresh with respect to global
    updates and to the asking node's own writes, not to a local write
    at a remote peer that no update has yet carried (see {!Epoch}).
    Capacity limits come from the underlying {!Lru}. *)

module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query
module Row = Codb_relalg.Row

type t

type hit_kind = Exact | By_containment

type hit = { answers : Row.t list; kind : hit_kind }
(** Answers packed, as stored: the answer set in {!Row.compare}
    order. *)

type counters = {
  hits_exact : int;
  hits_containment : int;
  misses : int;
  stores : int;
  epoch_invalidations : int;  (** entries dropped for a stale epoch stamp *)
  evictions : int;
  bytes_served : int;  (** answer bytes served from the cache *)
  entries : int;  (** live entries right now *)
  stored_bytes : int;  (** bytes held right now *)
  epoch_bumps : int;
}

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Capacity semantics as in {!Lru.create}. *)

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
