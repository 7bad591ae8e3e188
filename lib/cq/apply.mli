(** Instantiation of GLAV rule heads at the importer.

    A rule's head projection ({!Eval.heads}) renders each existential
    head variable as a {!Codb_relalg.Value.Hole} placeholder (indexed
    by its position in {!Query.existential_head_vars}); the
    {e importing} node replaces the holes with fresh marked nulls after
    duplicate suppression.  Keeping holes on the wire — rather than
    minting nulls at the sender — is what lets the importer recognise
    that an incoming tuple is subsumed by one it already has, and hence
    what makes cyclic rule systems reach a fix-point. *)

val instantiate :
  rule:string -> Codb_relalg.Tuple.t list -> Codb_relalg.Tuple.t list
(** Replace holes with fresh marked nulls labelled with the rule id. *)
