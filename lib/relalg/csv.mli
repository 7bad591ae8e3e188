(** Minimal CSV import/export for relation contents.

    The format is deliberately simple: one tuple per line, fields
    separated by commas, strings quoted with double quotes (doubled
    quotes escape a quote).  Values are parsed according to the
    relation schema.  Marked nulls are written as [#Nid@rule] and read
    back preserving their identifier, so a dump/load round-trip is
    faithful. *)

exception Parse_error of { line : int; message : string }

val parse_line : Schema.t -> int -> string -> Tuple.t
(** Parse one CSV line against a schema.  @raise Parse_error. *)

val load_string : Schema.t -> string -> Tuple.t list
(** Parse a whole CSV document (blank lines and [#]-comments are
    skipped).  @raise Parse_error. *)

val load_into : Database.t -> string -> string -> int
(** [load_into db rel_name csv] inserts the parsed tuples and returns
    the number of new tuples. *)

val dump : Relation.t -> string

val dump_database : Database.t -> string
(** All relations, each preceded by a [# relation <name>] comment. *)

val parse_database : Database.t -> string -> (string * Tuple.t) list
(** Parse a {!dump_database} document against an existing database's
    schemas without changing it: the rows as (relation, tuple) pairs
    in document order.  Relations must already be declared; unknown
    sections raise {!Parse_error}. *)

val insert_rows : Database.t -> (string * Tuple.t) list -> int
(** Insert parsed rows; returns the number of new tuples. *)

val load_database : Database.t -> string -> int
(** {!parse_database} then {!insert_rows}: a malformed document
    raises {!Parse_error} before any tuple is inserted.  Together with
    the faithful marked-null round-trip this provides full store
    persistence. *)
