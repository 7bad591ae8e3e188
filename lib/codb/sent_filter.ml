module Tuple = Codb_relalg.Tuple
module Intern = Codb_relalg.Intern
module Row_table = Codb_cq.Eval.Row_table

type t = unit Row_table.t

let create ?(size = 64) () = Row_table.create size

let rows t = t

let note_if_new t tuple =
  let row = Array.map Intern.pack tuple in
  if Row_table.mem t row then false
  else begin
    Row_table.add t row ();
    true
  end

let elements t =
  List.sort Tuple.compare
    (Row_table.fold (fun row () acc -> Array.map Intern.unpack row :: acc) t [])

let tracked = Row_table.length
