(* Columnar storage engine on interned values.

   Tuples live as flat packed ints (see [Intern]) in per-column
   write-once chunk arrays; a row is a slot index shared by every
   column.  Relations are append-only: rows are never removed, so the
   row ids are exactly [0, card).  All probing — membership, hash
   indexes, column statistics, subsumption — happens on packed ints:
   equality is integer equality, hashing never walks a string.

   Boxed views are materialised lazily, one canonical [Tuple.t] per
   row, memoised for the relation's lifetime, so repeated probes
   allocate only result spines, never tuples.  [to_list] keeps the
   seed's sorted order (and caches it) so iteration-order-dependent
   behaviour is unchanged.

   [copy] snapshots in O(columns): full chunks are write-once and
   shared between the copy and the original; only the partial tail
   chunk of each column (and the row index) is cloned.  Like the seed,
   a copy starts with no hash indexes. *)

module Tuple_set = Set.Make (Tuple)

(* ---- chunked write-once stores -------------------------------------- *)

let chunk_shift = 12

let chunk_size = 1 lsl chunk_shift

let chunk_mask = chunk_size - 1

(* A relation's first chunk starts small and doubles up to
   [chunk_size], so a peer holding a few dozen tuples does not allocate
   full chunks; later chunks are allocated whole. *)
let first_chunk outer = if outer = 0 then 64 else chunk_size

let grow_chunk chunk fill =
  let grown = Array.make (2 * Array.length chunk) fill in
  Array.blit chunk 0 grown 0 (Array.length chunk);
  grown

module Ichunks = struct
  type t = { mutable chunks : int array array; mutable len : int }

  let create () = { chunks = [||]; len = 0 }

  let get t i = t.chunks.(i lsr chunk_shift).(i land chunk_mask)

  let push t v =
    let slot = t.len land chunk_mask and outer = t.len lsr chunk_shift in
    if slot = 0 then begin
      if outer = Array.length t.chunks then begin
        let grown = Array.make (max 4 (2 * outer)) [||] in
        Array.blit t.chunks 0 grown 0 outer;
        t.chunks <- grown
      end;
      t.chunks.(outer) <- Array.make (first_chunk outer) 0
    end
    else if slot = Array.length t.chunks.(outer) then
      t.chunks.(outer) <- grow_chunk t.chunks.(outer) 0;
    t.chunks.(outer).(slot) <- v;
    t.len <- t.len + 1

  (* Share full (write-once) chunks, clone only the partial tail. *)
  let snapshot t =
    let chunks = Array.copy t.chunks in
    if t.len land chunk_mask <> 0 then begin
      let tail = t.len lsr chunk_shift in
      chunks.(tail) <- Array.copy chunks.(tail)
    end;
    { chunks; len = t.len }
end

module Tchunks = struct
  (* same layout for memoised boxed rows; [[||]] marks "not yet
     materialised" (a real tuple is never empty: schemas have >= 1
     attribute) *)
  type t = { mutable chunks : Tuple.t array array; mutable len : int }

  let absent : Tuple.t = [||]

  let create () = { chunks = [||]; len = 0 }

  let get t i = t.chunks.(i lsr chunk_shift).(i land chunk_mask)

  let set t i v = t.chunks.(i lsr chunk_shift).(i land chunk_mask) <- v

  let push t v =
    let slot = t.len land chunk_mask and outer = t.len lsr chunk_shift in
    if slot = 0 then begin
      if outer = Array.length t.chunks then begin
        let grown = Array.make (max 4 (2 * outer)) [||] in
        Array.blit t.chunks 0 grown 0 outer;
        t.chunks <- grown
      end;
      t.chunks.(outer) <- Array.make (first_chunk outer) absent
    end
    else if slot = Array.length t.chunks.(outer) then
      t.chunks.(outer) <- grow_chunk t.chunks.(outer) absent;
    t.chunks.(outer).(slot) <- v;
    t.len <- t.len + 1

  let snapshot t =
    let chunks = Array.copy t.chunks in
    if t.len land chunk_mask <> 0 then begin
      let tail = t.len lsr chunk_shift in
      chunks.(tail) <- Array.copy chunks.(tail)
    end;
    { chunks; len = t.len }
end

(* growable row-id vectors: index buckets *)
module Ivec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push t v =
    if t.len = Array.length t.data then begin
      let data = Array.make (max 4 (2 * t.len)) 0 in
      Array.blit t.data 0 data 0 t.len;
      t.data <- data
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1
end

(* ---- hashing --------------------------------------------------------- *)

let combine h p = ((h * 486187739) + Intern.hash p) land max_int

(* ---- indexes --------------------------------------------------------- *)

type index = {
  ix_cols : int array;  (* probed columns, ascending *)
  ix_single : bool;  (* single-column: keyed by the packed value itself,
                        exact, no post-probe verification *)
  ix_tbl : (int, Ivec.t) Hashtbl.t;
}

(* Per-chunk [min, max] summaries of one column's packed values (a
   zone map).  Rows are only ever appended, so the intervals are
   exact. *)
type zcol = {
  mutable zc_mins : int array;
  mutable zc_maxs : int array;
  mutable zc_chunks : int;  (* summarised chunk count *)
}

type t = {
  schema : Schema.t;
  arity : int;
  cols : Ichunks.t array;  (* packed values, one chunk store per column *)
  boxed : Tchunks.t;  (* memoised canonical boxed rows *)
  mutable card : int;  (* rows are [0, card) *)
  row_index : (int, int list) Hashtbl.t;  (* content hash -> rows *)
  indexes : (int list, index) Hashtbl.t;
  (* per-column distinct-value counters keyed by packed value: built on
     the first [distinct_count] call, maintained incrementally after *)
  col_counts : (int, int) Hashtbl.t option array;
  (* per-column zone maps: built on the first [pv_prune] touching the
     column, maintained incrementally after *)
  zones : zcol option array;
  mutable sorted_cache : Tuple.t list option;
}

(* At most this many distinct hash indexes per relation; past it,
   probes reuse a built single-column index or scan. *)
let max_indexes = 16

let create schema =
  let arity = Schema.arity schema in
  {
    schema;
    arity;
    cols = Array.init arity (fun _ -> Ichunks.create ());
    boxed = Tchunks.create ();
    card = 0;
    row_index = Hashtbl.create 64;
    indexes = Hashtbl.create 4;
    col_counts = Array.make arity None;
    zones = Array.make arity None;
    sorted_cache = None;
  }

let schema r = r.schema

let name r = r.schema.Schema.rel_name

let cardinal r = r.card

(* ---- packed row access ----------------------------------------------- *)

let cell r col row = Ichunks.get r.cols.(col) row

let pack_tuple (t : Tuple.t) = Array.map Intern.pack t

let packed_hash (packed : int array) =
  let h = ref (Array.length packed) in
  for c = 0 to Array.length packed - 1 do
    h := combine !h packed.(c)
  done;
  !h

let row_matches r packed row =
  let rec loop c = c >= r.arity || (cell r c row = packed.(c) && loop (c + 1)) in
  loop 0

(* The row of a row-index bucket holding exactly [packed], or -1. *)
let rec find_in r packed = function
  | [] -> -1
  | row :: rest -> if row_matches r packed row then row else find_in r packed rest

let find_row r packed =
  if Array.length packed <> r.arity then -1
  else
    match Hashtbl.find_opt r.row_index (packed_hash packed) with
    | None -> -1
    | Some bucket -> find_in r packed bucket

(* canonical boxed view of a row, memoised *)
let boxed_row r row =
  let b = Tchunks.get r.boxed row in
  if b != Tchunks.absent then b
  else begin
    let t = Array.init r.arity (fun c -> Intern.unpack (cell r c row)) in
    Tchunks.set r.boxed row t;
    t
  end

(* ---- index maintenance ----------------------------------------------- *)

let index_add ix r row =
  let key =
    if ix.ix_single then cell r ix.ix_cols.(0) row
    else begin
      let h = ref (Array.length ix.ix_cols) in
      Array.iter (fun c -> h := combine !h (cell r c row)) ix.ix_cols;
      !h
    end
  in
  let bucket =
    match Hashtbl.find_opt ix.ix_tbl key with
    | Some b -> b
    | None ->
        let b = Ivec.create () in
        Hashtbl.add ix.ix_tbl key b;
        b
  in
  Ivec.push bucket row

(* Widen a built zone map with a freshly appended row.  Rows are
   appended strictly in order, so a new chunk always starts exactly at
   [zc_chunks]. *)
let zone_note z v row =
  let chunk = row lsr chunk_shift in
  if chunk >= z.zc_chunks then begin
    if chunk >= Array.length z.zc_mins then begin
      let cap = max 4 (2 * Array.length z.zc_mins) in
      let mins = Array.make cap 0 and maxs = Array.make cap 0 in
      Array.blit z.zc_mins 0 mins 0 z.zc_chunks;
      Array.blit z.zc_maxs 0 maxs 0 z.zc_chunks;
      z.zc_mins <- mins;
      z.zc_maxs <- maxs
    end;
    z.zc_mins.(chunk) <- v;
    z.zc_maxs.(chunk) <- v;
    z.zc_chunks <- chunk + 1
  end
  else begin
    if Intern.compare v z.zc_mins.(chunk) < 0 then z.zc_mins.(chunk) <- v;
    if Intern.compare v z.zc_maxs.(chunk) > 0 then z.zc_maxs.(chunk) <- v
  end

let note_insert r row =
  r.card <- r.card + 1;
  r.sorted_cache <- None;
  Hashtbl.iter (fun _ ix -> index_add ix r row) r.indexes;
  Array.iteri
    (fun col counts ->
      match counts with
      | None -> ()
      | Some counts ->
          let v = cell r col row in
          let n = Option.value ~default:0 (Hashtbl.find_opt counts v) in
          Hashtbl.replace counts v (n + 1))
    r.col_counts;
  Array.iteri
    (fun col z ->
      match z with None -> () | Some z -> zone_note z (cell r col row) row)
    r.zones

(* ---- mutation -------------------------------------------------------- *)

let index_count r = Hashtbl.length r.indexes

let check_insertable r t =
  if Tuple.has_hole t then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple with holes in %s (instantiate first)"
         (name r));
  if not (Schema.conforms r.schema t) then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple %s does not conform to %s"
         (Tuple.to_string t)
         (Schema.to_string r.schema))

let insert r t =
  check_insertable r t;
  let packed = pack_tuple t in
  let h = packed_hash packed in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt r.row_index h) in
  if find_in r packed bucket >= 0 then false
  else begin
    let row = r.card in
    for c = 0 to r.arity - 1 do
      Ichunks.push r.cols.(c) packed.(c)
    done;
    Tchunks.push r.boxed Tchunks.absent;
    Hashtbl.replace r.row_index h (row :: bucket);
    note_insert r row;
    true
  end

let insert_all r ts = List.filter (insert r) ts

let mem r t = find_row r (pack_tuple t) >= 0

(* ---- iteration ------------------------------------------------------- *)

let to_list r =
  match r.sorted_cache with
  | Some l -> l
  | None ->
      let acc = ref [] in
      for row = 0 to r.card - 1 do
        acc := boxed_row r row :: !acc
      done;
      let sorted = List.sort Tuple.compare !acc in
      r.sorted_cache <- Some sorted;
      sorted

let copy r =
  {
    r with
    cols = Array.map Ichunks.snapshot r.cols;
    boxed = Tchunks.snapshot r.boxed;
    row_index = Hashtbl.copy r.row_index;
    indexes = Hashtbl.create 4;
    col_counts = Array.make r.arity None;
    zones = Array.make r.arity None;
  }

let equal_contents r1 r2 =
  r1.card = r2.card
  && (r1.arity = r2.arity || r1.card = 0)
  &&
  let rec from row =
    row >= r1.card
    || (find_row r2 (Array.init r1.arity (fun c -> cell r1 c row)) >= 0 && from (row + 1))
  in
  from 0

(* ---- probes ---------------------------------------------------------- *)

let build_index r cols =
  let ix_cols = Array.of_list cols in
  let ix =
    {
      ix_cols;
      ix_single = Array.length ix_cols = 1;
      ix_tbl = Hashtbl.create (max 16 (r.card / 4));
    }
  in
  for row = 0 to r.card - 1 do
    index_add ix r row
  done;
  Hashtbl.replace r.indexes cols ix;
  ix

(* The index on [cols], existing or freshly built — [None] when the
   budget is exhausted (callers fall back to a scan). *)
let index_for r cols =
  match Hashtbl.find_opt r.indexes cols with
  | Some ix -> Some ix
  | None ->
      if Hashtbl.length r.indexes < max_indexes then Some (build_index r cols) else None

type bound_op = Blt | Ble | Bgt | Bge | Beq

type packed_view = {
  pv_arity : int;
  pv_cell : int -> int -> int;
  pv_all : unit -> int array * int;
  pv_probe : int list -> int array -> int array * int;
  pv_prune : (int * bound_op * int) list -> (int array * int * int * int) option;
  pv_before : int -> packed_view;
}

let no_rows = ([||], 0)

(* Row ids are [0, card), so every relation's full row set is a prefix
   of one shared identity array.  It only ever grows by replacement, so
   an array already handed out is never mutated. *)
let identity = ref [||]

let all_rows n =
  let have = Array.length !identity in
  if have < n then identity := Array.init (max n (2 * have)) Fun.id;
  (!identity, n)

(* Every id array an access path returns is ascending: index buckets
   and zone-map scans list rows in insertion order, and filters keep
   that order.  So the rows below [since] are a prefix of it, found by
   binary search, and cutting them off is a length, not a copy. *)
let cut since ((ids, n) as hits) =
  if n = 0 || ids.(n - 1) < since then hits
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: ids.(hi) >= since, and every id before lo is below it *)
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ids.(mid) < since then lo := mid + 1 else hi := mid
    done;
    (ids, !lo)
  end

(* The column's zone map, built on first use over every row so far and
   maintained by [note_insert] afterwards. *)
let zone_for r col =
  match r.zones.(col) with
  | Some z -> z
  | None ->
      let nchunks = (r.card + chunk_mask) lsr chunk_shift in
      let z =
        {
          zc_mins = Array.make (max 4 nchunks) 0;
          zc_maxs = Array.make (max 4 nchunks) 0;
          zc_chunks = nchunks;
        }
      in
      let store = r.cols.(col) in
      for chunk = 0 to nchunks - 1 do
        let base = chunk lsl chunk_shift in
        let last = min (base + chunk_mask) (r.card - 1) in
        let lo = ref (Ichunks.get store base) and hi = ref (Ichunks.get store base) in
        for i = base + 1 to last do
          let v = Ichunks.get store i in
          if Intern.compare v !lo < 0 then lo := v;
          if Intern.compare v !hi > 0 then hi := v
        done;
        z.zc_mins.(chunk) <- !lo;
        z.zc_maxs.(chunk) <- !hi
      done;
      r.zones.(col) <- Some z;
      z

(* Can a chunk whose column interval is [lo, hi] contain a row
   satisfying [cell op k]?  [Intern.compare] is consistent with
   {!Value.compare}, and a row only passes an order predicate when
   [Value.compare] orders it against the constant (nulls and holes
   compare false), so the interval test never skips a satisfying
   row. *)
let zone_admits ~lo ~hi op k =
  match op with
  | Beq -> Intern.compare k lo >= 0 && Intern.compare k hi <= 0
  | Blt -> Intern.compare lo k < 0
  | Ble -> Intern.compare lo k <= 0
  | Bgt -> Intern.compare hi k > 0
  | Bge -> Intern.compare hi k >= 0

(* Chunk-skip scan over the rows [0, n): row ids from chunks whose zone
   intervals can satisfy every bound, plus (visited, pruned) chunk
   counts. *)
let prune_rows r n bounds =
  if n = 0 then ([||], 0, 0, 0)
  else begin
    let zoned = List.map (fun (col, op, k) -> (zone_for r col, op, k)) bounds in
    let chunk_ok chunk =
      List.for_all
        (fun (z, op, k) ->
          chunk >= z.zc_chunks
          || zone_admits ~lo:z.zc_mins.(chunk) ~hi:z.zc_maxs.(chunk) op k)
        zoned
    in
    let out = Array.make n 0 in
    let m = ref 0 and visited = ref 0 and pruned = ref 0 in
    for chunk = 0 to (n - 1) lsr chunk_shift do
      if chunk_ok chunk then begin
        incr visited;
        for row = chunk lsl chunk_shift to min n ((chunk + 1) lsl chunk_shift) - 1 do
          out.(!m) <- row;
          incr m
        done
      end
      else incr pruned
    done;
    (out, !m, !visited, !pruned)
  end

(* The one access-path decision: resolve a fixed (sorted, distinct)
   column set once, returning a probe on the packed values aligned with
   [cols] — the column set's own index, else (budget exhausted) a built
   single-column index on one of the columns with the rest filtered,
   else a filtered scan.  The probe takes the row count [n] it reads:
   a scan walks only the rows [0, n), and a filtered bucket only its
   ids below [n]; an unfiltered bucket is returned whole, for the
   caller to [cut].  Hit arrays may be internal index buckets shared
   with the store: they are read-only and invalidated by the next
   insert. *)
let resolve_probe r cols =
  let ncols = List.length cols in
  let verify cols_arr vals row =
    let rec go j = j >= ncols || (cell r cols_arr.(j) row = vals.(j) && go (j + 1)) in
    go 0
  in
  let filter_rows n cols_arr vals data len =
    let _, len = cut n (data, len) in
    let out = Array.make len 0 and hits = ref 0 in
    for i = 0 to len - 1 do
      let row = data.(i) in
      if verify cols_arr vals row then begin
        out.(!hits) <- row;
        incr hits
      end
    done;
    (out, !hits)
  in
  match index_for r cols with
  | Some ix when ix.ix_single ->
      fun _n vals ->
        (match Hashtbl.find_opt ix.ix_tbl vals.(0) with
        | None -> no_rows
        | Some bucket -> (bucket.Ivec.data, bucket.Ivec.len))
  | Some ix ->
      let cols_arr = ix.ix_cols in
      fun n vals ->
        let h = ref (Array.length cols_arr) in
        for j = 0 to ncols - 1 do
          h := combine !h vals.(j)
        done;
        (match Hashtbl.find_opt ix.ix_tbl !h with
        | None -> no_rows
        | Some bucket ->
            (* combined-hash bucket: verify candidates cell-by-cell *)
            let data = bucket.Ivec.data and len = bucket.Ivec.len in
            let rec all_match i = i >= len || (verify cols_arr vals data.(i) && all_match (i + 1)) in
            if all_match 0 then (data, len) else filter_rows n cols_arr vals data len)
  | None -> (
      (* budget exhausted: reuse a built single-column index if one
         covers a probed column, filtering the rest; else scan *)
      let cols_arr = Array.of_list cols in
      let covered =
        let rec find j =
          if j >= ncols then None
          else
            match Hashtbl.find_opt r.indexes [ cols_arr.(j) ] with
            | Some ix -> Some (j, ix)
            | None -> find (j + 1)
        in
        find 0
      in
      match covered with
      | Some (j, ix) ->
          fun n vals ->
            (match Hashtbl.find_opt ix.ix_tbl vals.(j) with
            | None -> no_rows
            | Some bucket ->
                if ncols = 1 then (bucket.Ivec.data, bucket.Ivec.len)
                else filter_rows n cols_arr vals bucket.Ivec.data bucket.Ivec.len)
      | None ->
          fun n vals ->
            let out = ref [] and hits = ref 0 in
            for row = n - 1 downto 0 do
              if verify cols_arr vals row then begin
                out := row :: !out;
                incr hits
              end
            done;
            (Array.of_list !out, !hits))

(* Subsumption probe.  A stored tuple (hole-free by
   [check_insertable]) subsumes [incoming] iff it agrees with every
   non-hole position, so the candidates are exactly the rows matching
   the ground columns.  All-hole tuples are subsumed by anything; a
   non-conforming arity can match nothing (stored tuples always have
   the schema's arity). *)
let subsumed r incoming =
  if not (Tuple.has_hole incoming) then find_row r (pack_tuple incoming) >= 0
  else if Array.length incoming <> r.arity then false
  else begin
    let cols = ref [] and vals = ref [] in
    for col = r.arity - 1 downto 0 do
      let v = incoming.(col) in
      if not (Value.is_hole v) then begin
        cols := col :: !cols;
        vals := Intern.pack v :: !vals
      end
    done;
    if !cols = [] then r.card > 0
    else snd (resolve_probe r !cols r.card (Array.of_list !vals)) > 0
  end

(* The rows [0, min card limit): the whole, growing relation when
   [limit] is [max_int], a fixed prefix of it otherwise.  Both share the
   relation's indexes and zone maps. *)
let rec view r limit =
  let rows () = min r.card limit in
  {
    pv_arity = r.arity;
    pv_cell = (fun col row -> cell r col row);
    pv_all = (fun () -> all_rows (rows ()));
    pv_probe =
      (fun cols ->
        (* resolve lazily so an unexercised probe builds no index *)
        let resolved = ref None in
        fun vals ->
          let probe =
            match !resolved with
            | Some f -> f
            | None ->
                let f = resolve_probe r cols in
                resolved := Some f;
                f
          in
          let n = rows () in
          cut n (probe n vals));
    pv_prune = (fun bounds -> Some (prune_rows r (rows ()) bounds));
    pv_before = (fun since -> view r (min limit (max 0 since)));
  }

let packed_view r = view r max_int

let distinct_count r ~col =
  if col < 0 || col >= r.arity then
    invalid_arg
      (Printf.sprintf "Relation.distinct_count: column %d out of range for %s" col (name r));
  match r.col_counts.(col) with
  | Some counts -> Hashtbl.length counts
  | None -> (
      (* a single-column index already knows the answer for free *)
      match Hashtbl.find_opt r.indexes [ col ] with
      | Some ix -> Hashtbl.length ix.ix_tbl
      | None ->
          let counts = Hashtbl.create (max 16 (r.card / 4)) in
          for row = 0 to r.card - 1 do
            let v = cell r col row in
            let n = Option.value ~default:0 (Hashtbl.find_opt counts v) in
            Hashtbl.replace counts v (n + 1)
          done;
          r.col_counts.(col) <- Some counts;
          Hashtbl.length counts)

let pp ppf r =
  Fmt.pf ppf "@[<v 2>%s [%d tuples]%a@]" (name r) (cardinal r)
    Fmt.(list ~sep:nop (fun ppf t -> Fmt.pf ppf "@,%a" Tuple.pp t))
    (to_list r)
