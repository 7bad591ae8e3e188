(** Dependencies between a node's incoming and outgoing links.

    Paper, Section 3: "We say that an incoming link is dependent on an
    outgoing link, or that an outgoing link is relevant for some
    incoming link, if the head of the outgoing link references a
    relation which is referenced by a body subgoal of the incoming
    link."

    Both links live at the same node: the outgoing link's head writes
    into a local relation, and the incoming link's body reads local
    relations. *)

module Config = Codb_cq.Config

val relevant_outgoing :
  Config.rule_decl list -> incoming:Config.rule_decl -> Config.rule_decl list
(** Among the node's outgoing links, those relevant for the given
    incoming link. *)

val dependent_incoming :
  Config.rule_decl list -> outgoing:Config.rule_decl -> Config.rule_decl list
(** Among the node's incoming links, those dependent on the given
    outgoing link. *)

val relevant_for_query :
  Config.rule_decl list -> rels:string list -> Config.rule_decl list
(** Outgoing links whose head relation is one of the given local
    relations (used by the query engine to decide where to fetch
    from). *)
