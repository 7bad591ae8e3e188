(** Compact binary wire codec: length-delimited primitives over a growable
    buffer.  Integers use LEB128 varints (zigzag for signed), floats are 8-byte
    IEEE 754, and strings go through a dictionary so repeated strings
    ship once and become small back-references afterwards.

    The codec is payload-agnostic: higher layers (see {!Codb_core.Payload})
    define tags and field order on top of these primitives. *)

(** {1 Incremental link dictionaries}

    Every string goes through a dictionary that persists across
    messages on one directed link (or records of one WAL stream, or
    one snapshot), so a string crosses the link once per epoch and
    every later occurrence is a small id.  The wire
    format keeps the id {e explicit} on introductions, which makes
    desync detectable instead of silent: a receiver that missed an
    introduction raises {!Malformed} on the dangling reference — it
    can never resolve a reference to the wrong string. *)
module Dict : sig
  type sender
  (** Sender half: string -> id, assigned densely per epoch. *)

  type receiver
  (** Receiver half: id -> string mirror, rebuilt from introductions. *)

  val sender : ?size:int -> unit -> sender
  (** [size] is the table's initial size (default 64); it grows as
      strings arrive. *)

  val receiver : unit -> receiver

  val bump : sender -> unit
  (** Start a new epoch: clear the table.  Called when the link state
      is no longer trusted (crash, restart, flap, send on a closed
      pipe), so the next messages re-introduce every string. *)

  val epoch : sender -> int

  val entries : sender -> int
  (** Strings in the current epoch's table. *)

  val intros : sender -> int
  (** Introductions written (lifetime). *)

  val hits : sender -> int
  (** Back-references written (lifetime). *)

  val table_for : receiver -> epoch:int -> (int, string) Hashtbl.t
  (** The table a message stamped with [epoch] decodes against: a
      newer epoch resets and adopts, the current epoch accumulates,
      and a stale epoch gets a throwaway empty table (its references
      fail {!Malformed}; literals still decode). *)
end

(** {1 Encoding} *)

type writer

val writer : ?initial:int -> ?dict:Dict.sender -> unit -> writer
(** Fresh writer whose strings go through [dict].  [dict] defaults to
    a fresh dictionary: a self-contained message that a {!reader} with
    the default table decodes. *)

val counter : ?dict:Dict.sender -> unit -> writer
(** A writer that only counts: every primitive adds the bytes it would
    write to {!size} and writes nothing.  Strings go through [dict]
    exactly as on a {!writer} (it trains and counts its introductions
    and hits the same way), so encoding over a counter sizes a message
    and leaves the dictionary as the real encoding would.  {!contents}
    raises [Invalid_argument]. *)

val varint : writer -> int -> unit
(** Unsigned LEB128.  Negative arguments are a programming error (encoded as
    their 2's-complement magnitude, which will not round-trip); use
    {!zigzag} for signed values. *)

val zigzag : writer -> int -> unit
(** Signed varint: maps small negative and positive ints to small codes. *)

val float64 : writer -> float -> unit
(** 8-byte little-endian IEEE 754. *)

val byte : writer -> int -> unit
(** Single byte, low 8 bits of the argument. *)

val string : writer -> string -> unit
(** Dictionary string: introductions are [id*2, len, bytes] and hits
    [id*2+1], ids persisting across messages until {!Dict.bump}. *)

val raw_string : writer -> string -> unit
(** Length-prefixed string that bypasses the dictionary (for one-off blobs). *)

val contents : writer -> string
val size : writer -> int
(** Bytes written, or counted by a {!counter}. *)

(** {1 Decoding} *)

type reader

exception Malformed of string
(** Raised by read primitives on truncated or corrupt input. *)

val reader : ?table:(int, string) Hashtbl.t -> string -> reader
(** [table] is the id -> string mirror that introductions fill and
    back-references read: the epoch-selected table of a link (see
    {!Dict.table_for}), or one table for a whole log tail or snapshot.
    It defaults to a fresh table, the inverse of a default {!writer}. *)

val read_varint : reader -> int
val read_zigzag : reader -> int
val read_float64 : reader -> float
val read_byte : reader -> int
val read_string : reader -> string
val read_raw_string : reader -> string
val at_end : reader -> bool

val remaining : reader -> int
(** Bytes left to read. *)

val read_count : reader -> int
(** A varint used as an element count.  Counts drive [Array.init] /
    [List.init] allocations in payload decoders, so anything negative
    or exceeding {!remaining} (every element costs at least one byte)
    raises {!Malformed} instead of attempting the allocation. *)
