type t = int array

let of_tuple (t : Tuple.t) = Array.map Intern.pack t

let to_tuple (row : t) : Tuple.t = Array.map Intern.unpack row

let rec compare_from (a : t) b j =
  if j >= Array.length a then 0
  else
    let c = Intern.compare a.(j) b.(j) in
    if c <> 0 then c else compare_from a b (j + 1)

let compare (a : t) b =
  let n = Array.length a and m = Array.length b in
  if n <> m then Int.compare n m else compare_from a b 0

let rec cells_equal (a : t) b j = j >= Array.length a || (a.(j) = b.(j) && cells_equal a b (j + 1))

(* no local closure: a table lookup must not allocate *)
let equal (a : t) b = Array.length a = Array.length b && cells_equal a b 0

(* The cell mix leaves the low bits clustered on correlated columns
   such as (k, k); {!Intern.hash}'s finaliser avalanches them, since
   [Table] and the row index both pick buckets by the low bits. *)
let hash (row : t) =
  let h = ref (Array.length row) in
  for j = 0 to Array.length row - 1 do
    h := (!h * 0x100000001b3) lxor Intern.hash row.(j)
  done;
  Intern.hash !h

let rec hole_from (row : t) j = j < Array.length row && (Intern.is_hole row.(j) || hole_from row (j + 1))

let has_hole row = hole_from row 0

let has_null row = Array.exists Intern.is_null row

let instantiate_holes ~rule row =
  if not (has_hole row) then row
  else begin
    (* The same hole must map to the same fresh null within one row, so
       existential variables repeated in a rule head stay co-referent. *)
    let assigned = ref [] in
    Array.map
      (fun p ->
        if not (Intern.is_hole p) then p
        else
          match List.assoc_opt p !assigned with
          | Some null -> null
          | None ->
              let null = Intern.pack (Value.fresh_null ~rule) in
              assigned := (p, null) :: !assigned;
              null)
      row
  end

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)
