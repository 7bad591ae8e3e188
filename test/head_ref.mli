(** The boxed head projection the evaluator used before its packed head
    projector, kept as a reference: the oracle {!Codb_cq.Eval.heads}
    and {!Codb_cq.Eval.run} are checked against. *)

val head_tuples : Codb_cq.Query.t -> Codb_cq.Subst.t list -> Codb_relalg.Tuple.t list
(** Project the substitutions on the head, mapping each existential
    head variable to its hole (indexed by its position in
    {!Codb_cq.Query.existential_head_vars}); de-duplicated, in
    {!Codb_relalg.Tuple.compare} order. *)
