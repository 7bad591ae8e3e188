module Tuple_set = Codb_relalg.Relation.Tuple_set

type t = { mutable set : Tuple_set.t }

let create () = { set = Tuple_set.empty }

let already_sent t tuple = Tuple_set.mem tuple t.set

let note_sent t tuple = t.set <- Tuple_set.add tuple t.set

let elements t = Tuple_set.elements t.set

let tracked t = Tuple_set.cardinal t.set
