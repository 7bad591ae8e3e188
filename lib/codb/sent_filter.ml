module Row = Codb_relalg.Row

type t = unit Row.Table.t

let create ?(size = 64) () = Row.Table.create size

let rows t = t

let elements t = List.sort Row.compare (Row.Table.fold (fun row () acc -> row :: acc) t [])

let tracked = Row.Table.length
