type null = { null_id : int; null_rule : string }

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null of null
  | Hole of int

type ty = Tint | Tfloat | Tstring | Tbool

let constructor_rank = function
  | Int _ -> 0
  | Float _ -> 1
  | Str _ -> 2
  | Bool _ -> 3
  | Null _ -> 4
  | Hole _ -> 5

let compare v1 v2 =
  match (v1, v2) with
  | Int a, Int b -> Stdlib.compare a b
  | Float a, Float b -> Stdlib.compare a b
  | Str a, Str b -> Stdlib.compare a b
  | Bool a, Bool b -> Stdlib.compare a b
  | Null a, Null b -> Stdlib.compare a.null_id b.null_id
  | Hole a, Hole b -> Stdlib.compare a b
  | (Int _ | Float _ | Str _ | Bool _ | Null _ | Hole _), _ ->
      Stdlib.compare (constructor_rank v1) (constructor_rank v2)

(* Physical equality first: values that went through the intern table
   (everything a relation stores) share one canonical box per distinct
   value, so the fast path hits without walking a string. *)
let equal v1 v2 = v1 == v2 || compare v1 v2 = 0

let type_of = function
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | Str _ -> Some Tstring
  | Bool _ -> Some Tbool
  | Null _ | Hole _ -> None

let conforms ty v =
  match type_of v with None -> true | Some ty' -> ty = ty'

let is_null = function Null _ -> true | Int _ | Float _ | Str _ | Bool _ | Hole _ -> false

let is_hole = function Hole _ -> true | Int _ | Float _ | Str _ | Bool _ | Null _ -> false

(* Wire-size accounting, shared by the stats/report data-volume
   counters and the bench byte counters.  It
   mirrors the compact codec exactly for a value whose strings are not
   yet in the per-message dictionary: one tag byte, varint lengths,
   zigzag integers. *)
let varint_size n =
  let rec loop n acc = if n < 0x80 then acc else loop (n lsr 7) (acc + 1) in
  loop (if n < 0 then max_int else n) 1

let zigzag_size n = varint_size ((n lsl 1) lxor (n asr 62))

let size_bytes = function
  | Int n -> 1 + zigzag_size n
  | Float _ -> 9
  | Str s -> 2 + varint_size (String.length s) + String.length s
  | Bool _ -> 1
  | Null { null_id; null_rule } ->
      2 + zigzag_size null_id + varint_size (String.length null_rule)
      + String.length null_rule
  | Hole i -> 1 + zigzag_size i

let counter = ref 0

let fresh_null ~rule =
  incr counter;
  Null { null_id = !counter; null_rule = rule }

let null_counter () = !counter

(* Run by [reset_null_counter]: lets downstream caches keyed by null
   identity (the intern table) drop entries whose ids are about to be
   reissued.  Registered at module-init time, not per value. *)
let reset_hooks : (unit -> unit) list ref = ref []

let on_reset_null_counter hook = reset_hooks := hook :: !reset_hooks

let reset_null_counter () =
  counter := 0;
  List.iter (fun hook -> hook ()) !reset_hooks

let ty_of_string = function
  | "int" -> Some Tint
  | "float" -> Some Tfloat
  | "string" -> Some Tstring
  | "bool" -> Some Tbool
  | _ -> None

let string_of_ty = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let pp ppf = function
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.float ppf f
  | Str s -> Fmt.pf ppf "%S" s
  | Bool b -> Fmt.bool ppf b
  | Null n -> Fmt.pf ppf "#N%d@%s" n.null_id n.null_rule
  | Hole i -> Fmt.pf ppf "_%d" i

let pp_ty ppf ty = Fmt.string ppf (string_of_ty ty)

let to_string v = Fmt.str "%a" pp v
