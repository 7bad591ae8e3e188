module Tuple = Codb_relalg.Tuple
module Intern = Codb_relalg.Intern
module Row_table = Codb_cq.Eval.Row_table

type t = unit Row_table.t

let create () = Row_table.create 64

let rows t = t

let note_sent t tuple = Row_table.replace t (Array.map Intern.pack tuple) ()

let elements t =
  List.sort Tuple.compare
    (Row_table.fold (fun row () acc -> Array.map Intern.unpack row :: acc) t [])

let tracked = Row_table.length
