type t = Value.t array

let compare t1 t2 =
  let n1 = Array.length t1 and n2 = Array.length t2 in
  if n1 <> n2 then Stdlib.compare n1 n2
  else
    let rec loop i =
      if i >= n1 then 0
      else
        let c = Value.compare t1.(i) t2.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let equal t1 t2 = t1 == t2 || compare t1 t2 = 0

let arity = Array.length

(* Content hash through the intern table: every value hashes as its
   packed int, so hashing a tuple of strings is O(arity) with no
   string walk after the first interning.  Consistent with [equal] by
   injectivity of [Intern.pack] up to [Value.compare]. *)
let hash t =
  let h = ref (Array.length t) in
  for i = 0 to Array.length t - 1 do
    h := (!h * 486187739) + Intern.hash (Intern.pack t.(i))
  done;
  !h land max_int

(* Rewrite every value to its canonical interned box (shared, so
   [Value.equal]'s [==] fast path hits); identity when the tuple is
   already canonical. *)
let canonical t =
  let n = Array.length t in
  let rec first_fresh i =
    if i >= n then -1
    else
      let c = Intern.canonical t.(i) in
      if c == t.(i) then first_fresh (i + 1) else i
  in
  let i = first_fresh 0 in
  if i < 0 then t else Array.map Intern.canonical t

(* Wire-size model: varint tuple header plus the shared per-value
   accounting (see {!Value.size_bytes}). *)
let size_bytes t =
  Array.fold_left (fun acc v -> acc + Value.size_bytes v) (Value.varint_size (arity t)) t

let has_hole t = Array.exists Value.is_hole t

let has_null t = Array.exists Value.is_null t

let subsumes stored incoming =
  Array.length stored = Array.length incoming
  &&
  let rec loop i =
    if i >= Array.length stored then true
    else
      let ok =
        match incoming.(i) with
        | Value.Hole _ -> true
        | v -> Value.equal stored.(i) v
      in
      ok && loop (i + 1)
  in
  loop 0

(* FNV-1a-style content digest, independent of intern-slot numbering
   (a Str hashes its characters, a Null its id), so digests compare
   across processes and across repeated runs.  Shared by the benches'
   answer-equality gates and the determinism tests. *)
let fnv h n = (h lxor n) * 0x100000001b3 land max_int

let digest_value h = function
  | Value.Int n -> fnv (fnv h 1) n
  | Value.Float f -> fnv (fnv h 2) (Int64.to_int (Int64.bits_of_float f))
  | Value.Str s -> String.fold_left (fun h c -> fnv h (Char.code c)) (fnv h 3) s
  | Value.Bool b -> fnv (fnv h 4) (Bool.to_int b)
  | Value.Null { Value.null_id; _ } -> fnv (fnv h 5) null_id
  | Value.Hole k -> fnv (fnv h 6) k

let digest_fold h tuples =
  (* order-sensitive: callers fold sorted answer lists *)
  List.fold_left (fun h t -> Array.fold_left digest_value (fnv h 17) t) h tuples

let digest tuples = digest_fold 0 (List.sort compare tuples)

let pp ppf t =
  Fmt.pf ppf "(%a)" Fmt.(array ~sep:(any ", ") Value.pp) t

let to_string t = Fmt.str "%a" pp t
