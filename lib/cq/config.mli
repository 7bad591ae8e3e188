(** Network descriptions: the contents of a coordination-rules file.

    This is the artefact the paper's super-peer reads and broadcasts to
    every peer (Section 4): node declarations (schemas, optional base
    facts, optional integrity constraints, mediator flag) plus GLAV
    coordination rules between pairs of nodes.  The textual syntax is
    parsed by {!Parser} and printed by {!Pretty}. *)

type node_decl = {
  node_name : string;
  relations : Codb_relalg.Schema.t list;
  facts : (string * Codb_relalg.Tuple.t) list;
  mediator : bool;
      (** A mediator has no Local Database; the Wrapper evaluates all
          operations on temporary relations (paper, Section 2). *)
  constraints : Query.t list;
      (** Denial constraints: body-only patterns that must have no
          answer.  A node whose local data matches a constraint is
          locally inconsistent; per the paper's principle (d), the
          inconsistency does not propagate. *)
}

type rule_decl = {
  rule_id : string;
  importer : string;  (** the node whose schema the head refers to *)
  source : string;  (** the acquaintance whose schema the body refers to *)
  rule_query : Query.t;
}

type t = { nodes : node_decl list; rules : rule_decl list }

val node : t -> string -> node_decl option

val rules_importing_at : t -> string -> rule_decl list

val rules_sourced_at : t -> string -> rule_decl list

val acquaintances : t -> string -> string list
(** Nodes sharing at least one coordination rule with the given node
    (in either direction), without duplicates. *)

val validate : t -> (unit, string list) result
(** Full static checking: unique node and rule names, endpoints exist
    and differ, head/body relations exist in the right schemas with
    matching arities, every head variable fills a column of the same
    type as its body columns and every head constant conforms to its
    column, rules are safe (existential heads allowed),
    constraints are safe, facts conform to their schemas. *)

val empty : t

val merge : t -> t -> t
(** Concatenate declarations (used by generators). *)
