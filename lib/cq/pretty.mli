(** Printers producing the concrete syntax accepted by {!Parser}, so
    that [parse ∘ print] is the identity (up to layout) — a property
    the test suite checks on random configurations. *)

val literal : Codb_relalg.Value.t Fmt.t
(** Strings are quoted with double quotes and embedded quotes are doubled, the
    escape convention of {!Lexer}.  Marked nulls and holes have no
    concrete syntax; printing them raises [Invalid_argument]. *)

val term : Term.t Fmt.t

val atom : Atom.t Fmt.t

val comparison : Query.comparison Fmt.t

val query : Query.t Fmt.t
(** [head <- body-items] without a trailing [;]. *)

val node_decl : Config.node_decl Fmt.t

val rule_decl : Config.rule_decl Fmt.t

val config : Config.t Fmt.t

val config_to_string : Config.t -> string
