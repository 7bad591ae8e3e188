(* Columnar storage engine on interned values.

   Tuples live as flat packed ints (see [Intern]) in per-column
   write-once chunk arrays; a row is a slot index shared by every
   column.  A presence bitmap marks removed slots dead (their storage
   is reclaimed on [clear]).  All probing — membership, hash indexes,
   column statistics, subsumption — happens on packed ints: equality
   is integer equality, hashing never walks a string.

   Boxed views are materialised lazily, one canonical [Tuple.t] per
   row, memoised for the relation's lifetime, so repeated probes
   allocate only result spines, never tuples.  [to_list] keeps the
   seed's sorted order (and caches it) so iteration-order-dependent
   behaviour is unchanged.

   [copy] snapshots in O(columns): full chunks are write-once and
   shared between the copy and the original; only the partial tail
   chunk of each column (and the presence bitmap / row index) is
   cloned.  Like the seed, a copy starts with no hash indexes. *)

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

  (* order inside a bucket is unspecified: swap-remove is O(1) *)
  let remove t v =
    let rec find i = if i >= t.len then -1 else if t.data.(i) = v then i else find (i + 1) in
    let i = find 0 in
    if i >= 0 then begin
      t.len <- t.len - 1;
      t.data.(i) <- t.data.(t.len)
    end
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
   zone map).  Bounds cover every slot ever written in the chunk, dead
   ones included: removals never shrink an interval, so a stale zone
   map is only ever *wider* than the live data — pruning stays sound,
   it just skips less. *)
type zcol = {
  mutable zc_mins : int array;
  mutable zc_maxs : int array;
  mutable zc_chunks : int;  (* summarised chunk count *)
}

type t = {
  schema : Schema.t;
  arity : int;
  cols : Ichunks.t array;  (* packed values, one chunk store per column *)
  mutable boxed : Tchunks.t;  (* memoised canonical boxed rows *)
  mutable live : Bytes.t;  (* presence bitmap over row slots *)
  mutable nrows : int;  (* total slots, including dead ones *)
  mutable card : int;
  mutable row_index : (int, int list) Hashtbl.t;  (* content hash -> slots *)
  indexes : (int list, index) Hashtbl.t;
  mutable index_budget : int;
  (* per-column distinct-value counters keyed by packed value: built on
     the first [distinct_count] call, maintained incrementally after *)
  mutable col_counts : (int, int) Hashtbl.t option array;
  (* per-column zone maps: built on the first [pv_prune] touching the
     column, maintained incrementally after *)
  mutable zones : zcol option array;
  mutable sorted_cache : Tuple.t list option;
  mutable live_cache : int array option;  (* live row ids, insertion order *)
}

let default_index_budget = 16

let create schema =
  let arity = Schema.arity schema in
  {
    schema;
    arity;
    cols = Array.init arity (fun _ -> Ichunks.create ());
    boxed = Tchunks.create ();
    live = Bytes.make 64 '\000';
    nrows = 0;
    card = 0;
    row_index = Hashtbl.create 64;
    indexes = Hashtbl.create 4;
    index_budget = default_index_budget;
    col_counts = Array.make arity None;
    zones = Array.make arity None;
    sorted_cache = None;
    live_cache = None;
  }

let schema r = r.schema

let name r = r.schema.Schema.rel_name

let cardinal r = r.card

let is_empty r = r.card = 0

(* ---- presence bitmap ------------------------------------------------- *)

let is_live r row = Char.code (Bytes.unsafe_get r.live (row lsr 3)) land (1 lsl (row land 7)) <> 0

let set_live r row =
  let b = row lsr 3 in
  if b >= Bytes.length r.live then begin
    let grown = Bytes.make (max (2 * Bytes.length r.live) (b + 1)) '\000' in
    Bytes.blit r.live 0 grown 0 (Bytes.length r.live);
    r.live <- grown
  end;
  Bytes.set r.live b (Char.chr (Char.code (Bytes.get r.live b) lor (1 lsl (row land 7))))

let clear_live r row =
  let b = row lsr 3 in
  Bytes.set r.live b (Char.chr (Char.code (Bytes.get r.live b) land lnot (1 lsl (row land 7))))

let iter_live r f =
  for row = 0 to r.nrows - 1 do
    if is_live r row then f row
  done

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

(* The live slot holding exactly [packed], or -1. *)
let find_row r packed =
  if Array.length packed <> r.arity then -1
  else
    match Hashtbl.find_opt r.row_index (packed_hash packed) with
    | None -> -1
    | Some bucket ->
        let rec scan = function
          | [] -> -1
          | row :: rest ->
              if is_live r row && row_matches r packed row then row else scan rest
        in
        scan bucket

(* canonical boxed view of a live row, memoised *)
let boxed_row r row =
  let b = Tchunks.get r.boxed row in
  if b != Tchunks.absent then b
  else begin
    let t = Array.init r.arity (fun c -> Intern.unpack (cell r c row)) in
    Tchunks.set r.boxed row t;
    t
  end

(* ---- index maintenance ----------------------------------------------- *)

let index_key ix r row =
  if ix.ix_single then cell r ix.ix_cols.(0) row
  else begin
    let h = ref (Array.length ix.ix_cols) in
    Array.iter (fun c -> h := combine !h (cell r c row)) ix.ix_cols;
    !h
  end

let index_add ix r row =
  let key = index_key ix r row in
  let bucket =
    match Hashtbl.find_opt ix.ix_tbl key with
    | Some b -> b
    | None ->
        let b = Ivec.create () in
        Hashtbl.add ix.ix_tbl key b;
        b
  in
  Ivec.push bucket row

let index_remove ix r row =
  let key = index_key ix r row in
  match Hashtbl.find_opt ix.ix_tbl key with
  | None -> ()
  | Some bucket ->
      Ivec.remove bucket row;
      if bucket.Ivec.len = 0 then Hashtbl.remove ix.ix_tbl key

(* Widen a built zone map with a freshly appended slot.  Slots are
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
  r.live_cache <- None;
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

let note_remove r row =
  r.card <- r.card - 1;
  r.sorted_cache <- None;
  r.live_cache <- None;
  Hashtbl.iter (fun _ ix -> index_remove ix r row) r.indexes;
  Array.iteri
    (fun col counts ->
      match counts with
      | None -> ()
      | Some counts -> (
          let v = cell r col row in
          match Hashtbl.find_opt counts v with
          | Some n when n > 1 -> Hashtbl.replace counts v (n - 1)
          | Some _ -> Hashtbl.remove counts v
          | None -> ()))
    r.col_counts

(* ---- mutation -------------------------------------------------------- *)

let set_index_budget r budget = r.index_budget <- max 0 budget

let index_budget r = r.index_budget

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
  let present =
    match Hashtbl.find_opt r.row_index h with
    | None -> false
    | Some bucket ->
        List.exists (fun row -> is_live r row && row_matches r packed row) bucket
  in
  if present then false
  else begin
    let row = r.nrows in
    for c = 0 to r.arity - 1 do
      Ichunks.push r.cols.(c) packed.(c)
    done;
    Tchunks.push r.boxed Tchunks.absent;
    r.nrows <- row + 1;
    set_live r row;
    Hashtbl.replace r.row_index h
      (row :: Option.value ~default:[] (Hashtbl.find_opt r.row_index h));
    note_insert r row;
    true
  end

let insert_all r ts = List.filter (insert r) ts

let mem r t = find_row r (pack_tuple t) >= 0

let remove r t =
  let packed = pack_tuple t in
  let row = find_row r packed in
  if row < 0 then false
  else begin
    note_remove r row;
    clear_live r row;
    let h = packed_hash packed in
    (match Hashtbl.find_opt r.row_index h with
    | None -> ()
    | Some bucket -> (
        match List.filter (fun row' -> row' <> row) bucket with
        | [] -> Hashtbl.remove r.row_index h
        | bucket' -> Hashtbl.replace r.row_index h bucket'));
    (* dead slots keep their column storage until [clear]; removals are
       rare (mirror retractions, tests) and slots are never reused *)
    true
  end

let clear r =
  Array.iteri (fun c _ -> r.cols.(c) <- Ichunks.create ()) (Array.make r.arity ());
  r.boxed <- Tchunks.create ();
  r.live <- Bytes.make 64 '\000';
  r.nrows <- 0;
  r.card <- 0;
  r.row_index <- Hashtbl.create 64;
  Hashtbl.reset r.indexes;
  r.col_counts <- Array.make r.arity None;
  r.zones <- Array.make r.arity None;
  r.sorted_cache <- None;
  r.live_cache <- None

(* ---- iteration ------------------------------------------------------- *)

let to_list r =
  match r.sorted_cache with
  | Some l -> l
  | None ->
      let acc = ref [] in
      iter_live r (fun row -> acc := boxed_row r row :: !acc);
      let sorted = List.sort Tuple.compare !acc in
      r.sorted_cache <- Some sorted;
      sorted

let to_seq r = List.to_seq (to_list r)

let fold f r init = List.fold_left (fun acc t -> f t acc) init (to_list r)

let iter f r = List.iter f (to_list r)

let copy r =
  {
    r with
    cols = Array.map Ichunks.snapshot r.cols;
    boxed = Tchunks.snapshot r.boxed;
    live = Bytes.copy r.live;
    row_index = Hashtbl.copy r.row_index;
    indexes = Hashtbl.create 4;
    col_counts = Array.make r.arity None;
    zones = Array.make r.arity None;
  }

let equal_contents r1 r2 =
  r1.card = r2.card
  && (r1.arity = r2.arity || r1.card = 0)
  &&
  let ok = ref true in
  iter_live r1 (fun row ->
      if !ok then begin
        let packed = Array.init r1.arity (fun c -> cell r1 c row) in
        if find_row r2 packed < 0 then ok := false
      end);
  !ok

let size_bytes r = fold (fun t acc -> acc + Tuple.size_bytes t) r 0

(* ---- probes ---------------------------------------------------------- *)

let check_col r col =
  if col < 0 || col >= r.arity then
    invalid_arg
      (Printf.sprintf "Relation.lookup: column %d out of range for %s" col (name r))

let build_index r cols =
  let ix_cols = Array.of_list cols in
  let ix =
    {
      ix_cols;
      ix_single = Array.length ix_cols = 1;
      ix_tbl = Hashtbl.create (max 16 (r.card / 4));
    }
  in
  iter_live r (fun row -> index_add ix r row);
  Hashtbl.replace r.indexes cols ix;
  ix

(* The index on [cols], existing or freshly built — [None] when the
   per-relation budget is exhausted (callers fall back to a scan). *)
let index_for r cols =
  match Hashtbl.find_opt r.indexes cols with
  | Some ix -> Some ix
  | None ->
      if Hashtbl.length r.indexes < r.index_budget then Some (build_index r cols)
      else None

let packed_bindings_match r bindings row =
  List.for_all (fun (col, pv) -> cell r col row = pv) bindings

(* Row ids matching [bindings] through [ix]; multi-column indexes key
   by combined hash, so candidates are verified cell-by-cell. *)
let index_rows ix r (bindings : (int * int) list) =
  let key =
    if ix.ix_single then snd (List.hd bindings)
    else begin
      let h = ref (Array.length ix.ix_cols) in
      List.iter (fun (_, pv) -> h := combine !h pv) bindings;
      !h
    end
  in
  match Hashtbl.find_opt ix.ix_tbl key with
  | None -> [||]
  | Some bucket ->
      if ix.ix_single then Array.sub bucket.Ivec.data 0 bucket.Ivec.len
      else begin
        let out = ref [] and n = ref 0 in
        for i = bucket.Ivec.len - 1 downto 0 do
          let row = bucket.Ivec.data.(i) in
          if packed_bindings_match r bindings row then begin
            out := row :: !out;
            incr n
          end
        done;
        if !n = bucket.Ivec.len then Array.sub bucket.Ivec.data 0 bucket.Ivec.len
        else Array.of_list !out
      end

let scan_rows r (bindings : (int * int) list) =
  let acc = ref [] in
  iter_live r (fun row ->
      if packed_bindings_match r bindings row then acc := row :: !acc);
  Array.of_list (List.rev !acc)

(* Normalise a probe: sort by column, drop duplicate bindings, detect
   contradictions ([None] = provably empty). *)
let normalise_bindings bindings =
  let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  let rec dedup = function
    | (c1, v1) :: ((c2, v2) :: _ as rest) when c1 = c2 ->
        if (v1 : int) = v2 then dedup rest else None
    | b :: rest -> Option.map (fun tail -> b :: tail) (dedup rest)
    | [] -> Some []
  in
  dedup sorted

(* Core probe on packed bindings (normalised, non-empty): row ids. *)
let probe_rows r bindings =
  let cols = List.map fst bindings in
  match index_for r cols with
  | Some ix -> index_rows ix r bindings
  | None -> (
      (* budget exhausted: probe an already-built single-column index
         if one covers a bound column, filter the rest *)
      let covered =
        List.find_opt (fun (col, _) -> Hashtbl.mem r.indexes [ col ]) bindings
      in
      match covered with
      | Some ((_, _) as b) -> (
          match Hashtbl.find_opt r.indexes [ fst b ] with
          | Some ix ->
              let candidates = index_rows ix r [ b ] in
              let rest = List.filter (fun (c, _) -> c <> fst b) bindings in
              if rest = [] then candidates
              else begin
                let out = ref [] in
                for i = Array.length candidates - 1 downto 0 do
                  let row = candidates.(i) in
                  if packed_bindings_match r rest row then out := row :: !out
                done;
                Array.of_list !out
              end
          | None -> scan_rows r bindings)
      | None -> scan_rows r bindings)

let rows_to_tuples r rows = Array.to_list (Array.map (boxed_row r) rows)

let lookup r ~col value =
  check_col r col;
  rows_to_tuples r (probe_rows r [ (col, Intern.pack value) ])

let lookup_cols r bindings =
  List.iter (fun (col, _) -> check_col r col) bindings;
  match normalise_bindings (List.map (fun (c, v) -> (c, Intern.pack v)) bindings) with
  | None -> []
  | Some [] -> to_list r (* no bindings: every tuple *)
  | Some bindings -> rows_to_tuples r (probe_rows r bindings)

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
    let ground = ref [] in
    Array.iteri
      (fun col v -> if not (Value.is_hole v) then ground := (col, Intern.pack v) :: !ground)
      incoming;
    match normalise_bindings !ground with
    | None -> false
    | Some [] -> not (is_empty r)
    | Some bindings -> Array.length (probe_rows r bindings) > 0
  end

(* ---- packed view ------------------------------------------------------ *)

type bound_op = Blt | Ble | Bgt | Bge | Beq

type packed_view = {
  pv_arity : int;
  pv_cell : int -> int -> int;
  pv_all : unit -> int array * int;
  pv_probe : int list -> int array -> int array * int;
  pv_prune : (int * bound_op * int) list -> (int array * int * int * int) option;
}

let no_rows = ([||], 0)

(* Live row ids in insertion order, cached until the next mutation.
   The cached array is never mutated, so copies may share it. *)
let live_rows r =
  match r.live_cache with
  | Some rows -> rows
  | None ->
      let rows = Array.make r.card 0 in
      let i = ref 0 in
      iter_live r (fun row ->
          rows.(!i) <- row;
          incr i);
      r.live_cache <- Some rows;
      rows

(* The column's zone map, built on first use over every slot written
   so far (dead ones included — see [zcol]) and maintained by
   [note_insert] afterwards. *)
let zone_for r col =
  match r.zones.(col) with
  | Some z -> z
  | None ->
      let nchunks = (r.nrows + chunk_mask) lsr chunk_shift in
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
        let last = min (base + chunk_mask) (r.nrows - 1) in
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

(* Chunk-skip scan: live row ids from chunks whose zone intervals can
   satisfy every bound, plus (visited, pruned) chunk counts.  Live
   rows come in ascending slot order, so each chunk is tested once. *)
let prune_rows r bounds =
  let rows = live_rows r in
  let n = Array.length rows in
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
    let cur = ref (-1) and keep = ref false in
    for i = 0 to n - 1 do
      let row = rows.(i) in
      let chunk = row lsr chunk_shift in
      if chunk <> !cur then begin
        cur := chunk;
        keep := chunk_ok chunk;
        if !keep then incr visited else incr pruned
      end;
      if !keep then begin
        out.(!m) <- row;
        incr m
      end
    done;
    (out, !m, !visited, !pruned)
  end

(* Resolve the access path for a fixed (sorted, distinct) column set
   once, returning a probe on the packed values aligned with [cols].
   Hit arrays may be internal index buckets shared with the store:
   they are read-only and invalidated by the next mutation. *)
let resolve_probe r cols =
  let ncols = List.length cols in
  let verify cols_arr vals row =
    let rec go j = j >= ncols || (cell r cols_arr.(j) row = vals.(j) && go (j + 1)) in
    go 0
  in
  let filter_rows cols_arr vals data len =
    let out = Array.make len 0 and n = ref 0 in
    for i = 0 to len - 1 do
      let row = data.(i) in
      if verify cols_arr vals row then begin
        out.(!n) <- row;
        incr n
      end
    done;
    (out, !n)
  in
  match index_for r cols with
  | Some ix when ix.ix_single ->
      fun vals ->
        (match Hashtbl.find_opt ix.ix_tbl vals.(0) with
        | None -> no_rows
        | Some bucket -> (bucket.Ivec.data, bucket.Ivec.len))
  | Some ix ->
      let cols_arr = ix.ix_cols in
      fun vals ->
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
            if all_match 0 then (data, len) else filter_rows cols_arr vals data len)
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
          fun vals ->
            (match Hashtbl.find_opt ix.ix_tbl vals.(j) with
            | None -> no_rows
            | Some bucket ->
                if ncols = 1 then (bucket.Ivec.data, bucket.Ivec.len)
                else filter_rows cols_arr vals bucket.Ivec.data bucket.Ivec.len)
      | None ->
          fun vals ->
            let out = ref [] and n = ref 0 in
            iter_live r (fun row ->
                if verify cols_arr vals row then begin
                  out := row :: !out;
                  incr n
                end);
            let data = Array.make (max 1 !n) 0 in
            List.iteri (fun i row -> data.(!n - 1 - i) <- row) !out;
            (data, !n))

let packed_view r =
  {
    pv_arity = r.arity;
    pv_cell = (fun col row -> cell r col row);
    pv_all = (fun () ->
        let rows = live_rows r in
        (rows, Array.length rows));
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
          probe vals);
    pv_prune = (fun bounds -> Some (prune_rows r bounds));
  }

let distinct_count r ~col =
  check_col r col;
  match r.col_counts.(col) with
  | Some counts -> Hashtbl.length counts
  | None -> (
      (* a single-column index already knows the answer for free *)
      match Hashtbl.find_opt r.indexes [ col ] with
      | Some ix -> Hashtbl.length ix.ix_tbl
      | None ->
          let counts = Hashtbl.create (max 16 (r.card / 4)) in
          iter_live r (fun row ->
              let v = cell r col row in
              let n = Option.value ~default:0 (Hashtbl.find_opt counts v) in
              Hashtbl.replace counts v (n + 1));
          r.col_counts.(col) <- Some counts;
          Hashtbl.length counts)

let pp ppf r =
  Fmt.pf ppf "@[<v 2>%s [%d tuples]%a@]" (name r) (cardinal r)
    Fmt.(list ~sep:nop (fun ppf t -> Fmt.pf ppf "@,%a" Tuple.pp t))
    (to_list r)
