(** A bounded LRU map with byte-size accounting.

    The core container under {!Qcache}: recency is maintained in an
    intrusive doubly-linked list, so [find], [add] and [remove] are
    O(1) (amortised, via the backing hash table).  Capacity can be
    bounded both by entry count and by the sum of the per-entry byte
    sizes supplied at insertion; crossing either bound evicts from the
    least-recently-used end.  Entries never expire: {!Qcache}
    invalidates by epoch stamp. *)

type ('k, 'v) t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> ('k, 'v) t
(** [max_entries] / [max_bytes] bound the cache (0 or negative:
    unbounded).  Default: unbounded. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Promotes the entry to most-recently-used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** No recency effect. *)

val add : ('k, 'v) t -> 'k -> 'v -> bytes:int -> unit
(** Insert (or replace) at most-recently-used, then evict from the LRU
    end while either capacity bound is exceeded.  An entry larger than
    [max_bytes] on its own does not stick. *)

val remove : ('k, 'v) t -> 'k -> unit

val touch : ('k, 'v) t -> 'k -> unit
(** Promote to most-recently-used (used when a lookup is answered
    through an entry found by scanning, e.g. a containment hit). *)

val fold : (key:'k -> value:'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Most-recently-used first; no recency effect.  The
    callback must not mutate the cache; collect keys and use
    {!remove} afterwards. *)

val length : ('k, 'v) t -> int

val bytes : ('k, 'v) t -> int
(** Sum of the byte sizes of the live entries. *)

val evictions : ('k, 'v) t -> int
(** Entries dropped so far by capacity pressure or {!clear}. *)

val clear : ('k, 'v) t -> unit
(** Drop every entry (counted as evictions). *)
