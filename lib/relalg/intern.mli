(** Global value interning.

    Every {!Value.t} packs into a single tagged OCaml int
    ({!type:packed}): the low 3 bits carry the constructor, the upper
    bits either the value itself (small ints, bools, holes) or a slot
    in a process-global side table (strings, floats, marked nulls,
    overflow ints).  Packed values give the storage engine O(1)
    equality and hashing with no allocation, and {!unpack} returns
    {e canonical} boxed values — the same packed int always unpacks to
    the same physical object, so canonical values compare with [==]
    before any structural walk.

    [pack] identifies values exactly up to {!Value.compare}-equality:
    all NaN floats collapse, [-0.] collapses into [+0.], and marked
    nulls intern by [null_id] alone (the rule tag is provenance, not
    identity).  Tables only ever grow; their lifetime is the process,
    like [Value.fresh_null]'s counter. *)

type packed = int

val pack : Value.t -> packed
(** Intern (if needed) and pack.  Total: every value, including ints
    outside the 60-bit payload range, has a packed form. *)

val unpack : packed -> Value.t
(** The canonical boxed value.  [Value.equal (unpack (pack v)) v]
    always holds; physical identity holds between any two unpacks of
    the same packed int.  Allocation-free once the canonical value
    exists (after the first unpack of a small int, bool or hole, and
    from the first pack of every other value). *)

val canonical : Value.t -> Value.t
(** [unpack (pack v)] — rewrite a value to its shared canonical
    representative. *)

val equal : packed -> packed -> bool
(** Integer equality; agrees with {!Value.equal} on the unpacked
    values. *)

val compare : packed -> packed -> int
(** Allocation-free total order, consistent with {!Value.compare} on
    the unpacked values. *)

val hash : packed -> int
(** Avalanche hash of the packed word; non-negative.  Never reads the
    interned payload, so hashing a string value is O(1). *)

val is_hole : packed -> bool

val is_null : packed -> bool

val conforms : Value.ty -> packed -> bool
(** {!Value.conforms} on the packed value, read off its tag. *)

