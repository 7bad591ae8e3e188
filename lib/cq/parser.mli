(** Recursive-descent parser for coordination-rules files and queries.

    Syntax (comments: [//] or [#] to end of line):

    {v
    node n1 {
      relation person(name: string, dept: string);
      relation job(dept: string, title: string);
      fact person("alice", "cs");
      constraint person(x, d), d = "forbidden";
    }
    node m mediator { relation person(name: string, dept: string); }
    rule r1 at n2: emp(x, t) <- n1: person(x, d), job(d, t), d != "hr";
    v}

    In query and rule positions identifiers are variables and literals
    ([42], [3.5], ["text"], [true], [false]) are constants.  A
    standalone user query reads [answer(x) <- emp(x, t), t = "prof"]. *)

exception Parse_error of { line : int; message : string }

val parse_config : string -> (Config.t, string) result
(** Syntax only; run {!Config.validate} for static checks. *)

val load_config : string -> (Config.t, string list) result
(** Parse and validate in one step. *)

val parse_query : string -> (Query.t, string) result
(** A standalone [head <- body] conjunctive query. *)

val parse_fact : string -> (string * Codb_relalg.Tuple.t, string) result
(** A standalone ground fact, e.g. [person("alice", 42)]. *)
