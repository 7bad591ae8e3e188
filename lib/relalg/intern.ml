(* Global value interning: every Value.t packs into one tagged OCaml
   int, so equality is integer equality, hashing never walks a string,
   and the columnar relation stores tuples as flat int arrays.

   Packed layout: the low 3 bits are a constructor tag, the upper bits
   the payload — either the value itself (small ints, bools, holes) or
   a slot in one of the global side tables (strings, floats, marked
   nulls, out-of-range ints and holes).  Tables only ever grow; the
   process-global lifetime mirrors [Value.fresh_null]'s global null
   counter and is the price of O(1) comparisons everywhere.

   Invariants:
   - [pack] is injective up to [Value.compare]-equality: two values
     pack to the same int iff [Value.compare] calls them equal.  In
     particular marked nulls intern by [null_id] alone (the rule tag
     is provenance, not identity — exactly what [Value.compare]
     implements), floats intern by their canonical bit pattern (all
     NaNs collapse, -0. collapses into +0.), and ints that do not fit
     the 60-bit payload fall back to an overflow table.
   - [unpack] returns a canonical boxed value: unpacking the same
     packed int twice yields the same physical object, so boxed
     values that went through the intern table compare with [==]
     before any structural walk. *)

let tag_bits = 3

let tag_mask = 7

(* constructor tags; [rank_of_tag] below must mirror
   [Value.constructor_rank] *)
let tag_int = 0

let tag_bool = 1

let tag_hole = 2

let tag_str = 3

let tag_float = 4

let tag_null = 5

let tag_bigint = 6

let tag_bighole = 7

let max_payload = max_int asr tag_bits

let min_payload = min_int asr tag_bits

let fits n = n >= min_payload && n <= max_payload

type packed = int

let tag p = p land tag_mask

let payload p = p asr tag_bits

let make_packed ~tag payload = (payload lsl tag_bits) lor tag

(* Fibonacci-style avalanche so sequential table slots spread across
   hash buckets; stays non-negative for direct use as a bucket key. *)
let hash (p : packed) =
  let h = p lxor (p lsr 33) in
  let h = h * 0x27d4eb2f165667c5 in
  (h lxor (h lsr 29)) land max_int

(* ---- growable side tables ------------------------------------------- *)

type 'a vec = { mutable data : 'a array; mutable len : int }

let vec_create () = { data = [||]; len = 0 }

let vec_get v i = v.data.(i)

let vec_push v x =
  if v.len = Array.length v.data then begin
    let cap = max 64 (2 * Array.length v.data) in
    let data = Array.make cap x in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

(* Each table maps a raw key to a slot; the slot stores the canonical
   boxed value, which both [unpack] and the packed comparison read. *)
let str_ids : (string, int) Hashtbl.t = Hashtbl.create 1024

let str_vals : Value.t vec = vec_create ()

let float_ids : (float, int) Hashtbl.t = Hashtbl.create 64

let float_vals : Value.t vec = vec_create ()

let null_ids : (int, int) Hashtbl.t = Hashtbl.create 256

let null_vals : Value.t vec = vec_create ()

let bigint_ids : (int, int) Hashtbl.t = Hashtbl.create 16

let bigint_vals : Value.t vec = vec_create ()

let bighole_ids : (int, int) Hashtbl.t = Hashtbl.create 16

let bighole_vals : Value.t vec = vec_create ()

(* Canonical boxed values for payload-carrying tags (small ints,
   bools, holes), memoised per packed int.  The packed ints below
   [direct_limit] (non-negative payloads up to 8 191: the ints, bools
   and holes that data and rule heads mostly carry) are direct-mapped
   in a growable array; the rest are keyed in a table by the packed
   hash and integer equality, read with [find] so that a hit allocates
   nothing (the generic table's [find_opt] boxes an option). *)
let direct_limit = 1 lsl 16

(* marks an unfilled slot; no packed int below [direct_limit] unpacks
   to a negative hole *)
let unfilled = Value.Hole (-1)

let canon_direct : Value.t array ref = ref [||]

module Misc_tbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  let hash = hash
end)

let canon_misc : Value.t Misc_tbl.t = Misc_tbl.create 1024

let intern_slot ids vals key v =
  match Hashtbl.find_opt ids key with
  | Some slot -> slot
  | None ->
      let slot = vec_push vals v in
      Hashtbl.add ids key slot;
      slot

(* All NaNs are one value under [Value.compare], as are -0. and +0.:
   collapse them before keying the float table so packed equality
   agrees with boxed equality. *)
let canonical_float f = if f <> f then Float.nan else if f = 0. then 0. else f

let pack = function
  | Value.Int n ->
      if fits n then make_packed ~tag:tag_int n
      else make_packed ~tag:tag_bigint (intern_slot bigint_ids bigint_vals n (Value.Int n))
  | Value.Bool b -> make_packed ~tag:tag_bool (if b then 1 else 0)
  | Value.Hole i ->
      if fits i then make_packed ~tag:tag_hole i
      else
        make_packed ~tag:tag_bighole (intern_slot bighole_ids bighole_vals i (Value.Hole i))
  | Value.Str s -> make_packed ~tag:tag_str (intern_slot str_ids str_vals s (Value.Str s))
  | Value.Float f ->
      let f = canonical_float f in
      make_packed ~tag:tag_float (intern_slot float_ids float_vals f (Value.Float f))
  | Value.Null { Value.null_id; _ } as v ->
      make_packed ~tag:tag_null (intern_slot null_ids null_vals null_id v)

let misc_value p =
  match tag p with
  | 0 (* tag_int *) -> Value.Int (payload p)
  | 1 (* tag_bool *) -> Value.Bool (payload p <> 0)
  | _ (* tag_hole *) -> Value.Hole (payload p)

let unpack_misc p =
  if p >= 0 && p < direct_limit then begin
    let direct = !canon_direct in
    if p < Array.length direct && direct.(p) != unfilled then direct.(p)
    else begin
      if p >= Array.length direct then begin
        let grown = Array.make (min direct_limit (max 1024 (2 * (p + 1)))) unfilled in
        Array.blit direct 0 grown 0 (Array.length direct);
        canon_direct := grown
      end;
      let v = misc_value p in
      !canon_direct.(p) <- v;
      v
    end
  end
  else
    match Misc_tbl.find canon_misc p with
    | v -> v
    | exception Not_found ->
        let v = misc_value p in
        Misc_tbl.add canon_misc p v;
        v

let unpack p =
  match tag p with
  | 3 (* tag_str *) -> vec_get str_vals (payload p)
  | 4 (* tag_float *) -> vec_get float_vals (payload p)
  | 5 (* tag_null *) -> vec_get null_vals (payload p)
  | 6 (* tag_bigint *) -> vec_get bigint_vals (payload p)
  | 7 (* tag_bighole *) -> vec_get bighole_vals (payload p)
  | _ -> unpack_misc p

let canonical v = unpack (pack v)

let equal (a : packed) (b : packed) = a = b

(* must mirror Value.constructor_rank: Int 0, Float 1, Str 2, Bool 3,
   Null 4, Hole 5 *)
let rank p =
  match tag p with
  | 0 | 6 -> 0
  | 4 -> 1
  | 3 -> 2
  | 1 -> 3
  | 5 -> 4
  | _ -> 5

let int_value p = if tag p = tag_int then payload p else
  (* unreachable: only [pack]'s [Value.Int] case fills [bigint_vals] *)
  match vec_get bigint_vals (payload p) with Value.Int n -> n | _ -> assert false

let hole_value p = if tag p = tag_hole then payload p else
  (* unreachable: only [pack]'s [Value.Hole] case fills [bighole_vals] *)
  match vec_get bighole_vals (payload p) with Value.Hole i -> i | _ -> assert false

(* Allocation-free total order, consistent with [Value.compare]. *)
let compare a b =
  if a = b then 0
  else
    let ra = rank a and rb = rank b in
    if ra <> rb then Stdlib.compare ra rb
    else
      match ra with
      | 0 -> Int.compare (int_value a) (int_value b)
      | 1 -> (
          match (vec_get float_vals (payload a), vec_get float_vals (payload b)) with
          | Value.Float x, Value.Float y -> Float.compare x y
          (* unreachable: only [pack]'s [Value.Float] case fills [float_vals] *)
          | _ -> assert false)
      | 2 -> (
          match (vec_get str_vals (payload a), vec_get str_vals (payload b)) with
          | Value.Str x, Value.Str y -> String.compare x y
          (* unreachable: only [pack]'s [Value.Str] case fills [str_vals] *)
          | _ -> assert false)
      | 3 -> Int.compare (payload a) (payload b)
      | 4 -> (
          match (vec_get null_vals (payload a), vec_get null_vals (payload b)) with
          | Value.Null x, Value.Null y -> Int.compare x.Value.null_id y.Value.null_id
          (* unreachable: only [pack]'s [Value.Null] case fills [null_vals] *)
          | _ -> assert false)
      | _ -> Int.compare (hole_value a) (hole_value b)

let is_hole p = tag p = tag_hole || tag p = tag_bighole

let is_null p = tag p = tag_null

let conforms ty p =
  match tag p with
  | 0 | 6 -> ty = Value.Tint
  | 1 -> ty = Value.Tbool
  | 3 -> ty = Value.Tstring
  | 4 -> ty = Value.Tfloat
  | _ (* nulls and holes conform to every type *) -> true

(* [Value.reset_null_counter] reissues null ids, so ids interned
   before the reset must not shadow the nulls of the new epoch: drop
   the id->slot map but keep the slot array, so packed nulls minted
   before the reset still unpack (they are a different epoch and no
   longer compare equal to new nulls with the same id — exactly the
   semantics of resetting the generator). *)
let () = Value.on_reset_null_counter (fun () -> Hashtbl.reset null_ids)
