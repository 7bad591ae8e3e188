(** Tuples are immutable arrays of {!Value.t}.

    Two notions of comparison matter in coDB:

    - {!compare}: exact lexicographic order, used by relation tuple
      sets;
    - {!subsumes}: null/hole-aware matching used by the duplicate
      suppression step of the global update algorithm.  A stored tuple
      [s] subsumes an incoming wire tuple [w] when they agree on every
      position where [w] carries a concrete value; a hole in [w] is an
      existential position, witnessed by {e any} stored value there
      (a concrete one as much as a marked null).  Dropping subsumed
      incoming tuples guarantees only this: a dropped tuple says
      nothing the store does not already say (its holes map into a
      stored tuple), so a repeat delivery adds no row.  It does not
      keep the instance minimal: a null-padded tuple is stored beside
      a ground tuple that covers it when the ground one arrives in the
      same batch or later, or when its null was minted upstream.  Nor
      does it make every update terminate: an incoming marked null is
      matched as a constant, not as a hole, so a cyclic rule set with
      existential head variables can mint nulls forever (two nodes
      copying [r(x, z) <- r(y, x)] to each other do). *)

type t = Value.t array

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** Content hash served by the intern table ({!Intern.hash} of each
    value's packed form): O(arity), never walks a string twice, and
    consistent with {!equal}.  Use this wherever tuples key a hash
    container — the polymorphic [Hashtbl.hash] walks every boxed
    string on every probe. *)

val canonical : t -> t
(** Every value rewritten to its shared interned box (see
    {!Intern.canonical}); physically the same tuple when it already is
    canonical.  Canonical tuples make [Value.equal]'s [==] fast path
    hit during joins. *)

val arity : t -> int

val size_bytes : t -> int
(** Wire size under the shared accounting model: a varint arity header
    plus {!Value.size_bytes} per value. *)

val has_hole : t -> bool

val has_null : t -> bool
(** Does the tuple contain a marked null?  Tuples without nulls are
    the {e certain} answers reported by the query engine. *)

val subsumes : t -> t -> bool
(** [subsumes stored incoming]: see the module documentation.  When
    [incoming] has no holes this degenerates to {!equal}. *)

val digest_value : int -> Value.t -> int
(** One FNV-1a-style mixing step over a value's {e content} (a string
    hashes its characters, a marked null its id) — independent of
    intern-slot numbering, so digests compare across processes and
    across repeated runs. *)

val digest_fold : int -> t list -> int
(** Fold {!digest_value} over a tuple list in the given order (callers
    pass sorted answer lists).  The benches' answer-equality gates and
    the determinism tests share this one definition. *)

val digest : t list -> int
(** [digest_fold 0] over the list sorted by {!compare}: a canonical
    digest of a tuple {e set}. *)

val pp : t Fmt.t

val to_string : t -> string
