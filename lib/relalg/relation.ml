(* Columnar storage engine on interned values.

   Tuples live as flat packed ints (see [Intern]) in per-column
   write-once chunk arrays; a row is a slot index shared by every
   column.  Relations are append-only: rows are never removed, so the
   row ids are exactly [0, card).  All probing — membership, hash
   indexes, column statistics, subsumption — happens on packed ints:
   equality is integer equality, hashing never walks a string.

   Set semantics rest on one row index: an open-addressing table of row
   ids in a single flat [int array] (linear probing, power-of-two
   capacity, load at most 1/2).  A probe hashes the incoming row and
   compares candidate rows' cells in place, so a membership test or a
   duplicate insert allocates nothing; growing the table rehashes every
   row from its columns, so no hash is stored beside an id.

   Nothing is kept boxed: [to_list] boxes a fresh tuple per row, in
   the rows' sorted order, for the text and API boundary, and keeps
   nothing.

   [copy] is a fork, in O(columns): the fork reads the rows below its
   fork point [lo] (the source's row count at the copy) through the
   source itself — its column chunks, its row index, its hash indexes
   with every bucket cut at [lo], and its zone maps for the chunks
   wholly below [lo] — and keeps columns, a row index, hash indexes,
   zone maps and distinct counters of its own for the rows it appends.
   Both sides stay independent: the source's later rows lie at or
   above [lo], where the fork never reads it, and the fork writes only
   its own arrays.  A fork of a fork reads through both. *)

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
   zone map), for the chunks from [zc_first] on.  Rows are only ever
   appended, so the intervals are exact. *)
type zcol = {
  zc_first : int;  (* the chunk summarised at entry 0 *)
  mutable zc_mins : int array;
  mutable zc_maxs : int array;
  mutable zc_chunks : int;  (* summarised chunk count *)
}

(* One column's distinct values: the values of the rows [lo, card),
   and how many of those no row below [lo] holds. *)
type counter = {
  cn_seen : (int, unit) Hashtbl.t;
  cn_below : int;  (* distinct values of the rows below [lo] *)
  mutable cn_fresh : int;
}

type t = {
  schema : Schema.t;
  arity : int;
  base : t option;
      (* a fork's source: the rows [0, lo) are its rows, found through
         its row index, hash indexes and zone maps *)
  lo : int;  (* the fork point; 0 without a base *)
  cols : Ichunks.t array;
      (* packed values of the rows [lo, card), the row [lo + i] at
         [i]: one chunk store per column *)
  mutable card : int;  (* rows are [0, card) *)
  mutable slots : int array;
      (* the row index of the rows [lo, card): row ids (or
         [empty_slot]) by content hash, linear probing, power-of-two
         length, at most half full *)
  indexes : (int list, index) Hashtbl.t;  (* over the rows [lo, card) *)
  (* per-column distinct-value counters: built on the first
     [distinct_count] call, maintained incrementally after *)
  counters : counter option array;
  (* per-column zone maps of the chunks from [lo]'s on: built on the
     first [pv_prune] touching the column, maintained incrementally
     after *)
  zones : zcol option array;
}

(* At most this many distinct hash indexes per relation; past it,
   probes reuse a built single-column index or scan. *)
let max_indexes = 16

let empty_slot = -1

let create schema =
  let arity = Schema.arity schema in
  {
    schema;
    arity;
    base = None;
    lo = 0;
    cols = Array.init arity (fun _ -> Ichunks.create ());
    card = 0;
    slots = Array.make 8 empty_slot;
    indexes = Hashtbl.create 4;
    counters = Array.make arity None;
    zones = Array.make arity None;
  }

let schema r = r.schema

let name r = r.schema.Schema.rel_name

let cardinal r = r.card

(* ---- packed row access ----------------------------------------------- *)

(* A cell below the fork point is the base's; a fork's bases are few
   (one, unless a fork was forked), so the walk is short. *)
let rec base_cell r col row =
  match r.base with
  | Some b ->
      if row >= b.lo then Ichunks.get b.cols.(col) (row - b.lo) else base_cell b col row
  | None -> invalid_arg "Relation: row id out of range"

let cell r col row =
  if row >= r.lo then Ichunks.get r.cols.(col) (row - r.lo) else base_cell r col row

(* Does the stored row [id] hold exactly the cells of [packed]?  Read in
   place, from column [c] on. *)
let rec row_matches r packed id c =
  c >= r.arity || (cell r c id = packed.(c) && row_matches r packed id (c + 1))

(* The row index's hash; linear probing starts at its low bits. *)
let row_hash = Row.hash

(* The slot of the row index holding [packed]'s row id, or the empty
   slot that ends its probe chain (the table is never full). *)
let rec probe_slot r slots packed i =
  let id = slots.(i) in
  if id = empty_slot || row_matches r packed id 0 then i
  else probe_slot r slots packed ((i + 1) land (Array.length slots - 1))

(* [packed]'s row id by its hash [h], or [empty_slot]: below the fork
   point through the base's row index, from it on through the
   relation's own. *)
let rec find_hashed r packed h =
  let below = match r.base with None -> empty_slot | Some b -> find_hashed b packed h in
  if below >= 0 && below < r.lo then below
  else
    let slots = r.slots in
    slots.(probe_slot r slots packed (h land (Array.length slots - 1)))

(* [packed]'s row id, or [empty_slot] when the relation lacks it *)
let find_id r packed =
  if Array.length packed <> r.arity then empty_slot else find_hashed r packed (row_hash packed)

(* Double the row index and re-place every row of its own by its hash,
   recomputed from its columns. *)
let grow_slots r =
  let cap = 2 * Array.length r.slots in
  let slots = Array.make cap empty_slot and cells = Array.make r.arity 0 in
  for id = r.lo to r.card - 1 do
    for c = 0 to r.arity - 1 do
      cells.(c) <- cell r c id
    done;
    let i = ref (row_hash cells land (cap - 1)) in
    while slots.(!i) <> empty_slot do
      i := (!i + 1) land (cap - 1)
    done;
    slots.(!i) <- id
  done;
  r.slots <- slots

let row r id = Array.init r.arity (fun c -> cell r c id)

(* ---- index maintenance ----------------------------------------------- *)

let index_add ix r row =
  let key =
    if ix.ix_single then cell r ix.ix_cols.(0) row
    else begin
      let h = ref (Array.length ix.ix_cols) in
      for j = 0 to Array.length ix.ix_cols - 1 do
        h := combine !h (cell r ix.ix_cols.(j) row)
      done;
      !h
    end
  in
  match Hashtbl.find ix.ix_tbl key with
  | bucket -> Ivec.push bucket row
  | exception Not_found ->
      let bucket = Ivec.create () in
      Hashtbl.add ix.ix_tbl key bucket;
      Ivec.push bucket row

let build_index r cols =
  let ix_cols = Array.of_list cols in
  let ix =
    {
      ix_cols;
      ix_single = Array.length ix_cols = 1;
      ix_tbl = Hashtbl.create (max 16 ((r.card - r.lo) / 4));
    }
  in
  for row = r.lo to r.card - 1 do
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

(* Does a row below [limit] hold [v] in column [col]?  Below the fork
   point the base answers; from it on the distinct counter, else the
   single-column index (index buckets ascend, so its first id says),
   else a scan. *)
let rec has_value r col v limit =
  (match r.base with Some b -> has_value b col v (min limit r.lo) | None -> false)
  || (limit > r.lo && own_has_value r col v limit)

and own_has_value r col v limit =
  match r.counters.(col) with
  | Some cn when not (Hashtbl.mem cn.cn_seen v) -> false
  | Some _ when r.card <= limit -> true
  | Some _ | None -> (
      match index_for r [ col ] with
      | Some ix -> (
          match Hashtbl.find_opt ix.ix_tbl v with
          | Some bucket -> bucket.Ivec.data.(0) < limit
          | None -> false)
      | None ->
          let rec scan row = row < limit && (cell r col row = v || scan (row + 1)) in
          scan r.lo)

let count_value r col cn v =
  if not (Hashtbl.mem cn.cn_seen v) then begin
    Hashtbl.add cn.cn_seen v ();
    let below = match r.base with None -> false | Some b -> has_value b col v r.lo in
    if not below then cn.cn_fresh <- cn.cn_fresh + 1
  end

(* Widen a built zone map with a freshly appended row.  Rows are
   appended strictly in order, so a new chunk always starts exactly at
   [zc_chunks]. *)
let zone_note z v row =
  let chunk = (row lsr chunk_shift) - z.zc_first in
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
  if Hashtbl.length r.indexes > 0 then
    Hashtbl.iter (fun _ ix -> index_add ix r row) r.indexes;
  for col = 0 to r.arity - 1 do
    (match r.counters.(col) with
    | None -> ()
    | Some cn -> count_value r col cn (cell r col row));
    match r.zones.(col) with None -> () | Some z -> zone_note z (cell r col row) row
  done

(* ---- mutation -------------------------------------------------------- *)

let index_count r = Hashtbl.length r.indexes

(* Allocation-free conformance of a packed row: the schema's arity, and
   every cell's tag agreeing with its column's type. *)
let rec attrs_conform (row : Row.t) i = function
  | [] -> true
  | a :: rest ->
      Intern.conforms a.Schema.attr_ty row.(i) && attrs_conform row (i + 1) rest

let row_conforms r (row : Row.t) =
  Array.length row = r.arity && attrs_conform row 0 r.schema.Schema.attrs

(* Is [row], of hash [h], among the rows below the fork point? *)
let in_base r row h =
  match r.base with
  | None -> false
  | Some b ->
      let id = find_hashed b row h in
      id >= 0 && id < r.lo

let insert_row r row =
  if Row.has_hole row then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple with holes in %s (instantiate first)"
         (name r));
  if not (row_conforms r row) then
    invalid_arg
      (Printf.sprintf "Relation.insert: tuple %s does not conform to %s"
         (Tuple.to_string (Row.to_tuple row))
         (Schema.to_string r.schema));
  let h = row_hash row in
  if in_base r row h then false
  else begin
    let slots = r.slots in
    let i = probe_slot r slots row (h land (Array.length slots - 1)) in
    if slots.(i) <> empty_slot then false
    else begin
      let row_id = r.card in
      for c = 0 to r.arity - 1 do
        Ichunks.push r.cols.(c) row.(c)
      done;
      slots.(i) <- row_id;
      note_insert r row_id;
      if 2 * (r.card - r.lo) > Array.length slots then grow_slots r;
      true
    end
  end

let insert r t = insert_row r (Row.of_tuple t)

let insert_all r ts = List.filter (insert r) ts

let find_row r row =
  let id = find_id r row in
  if id >= 0 then Some id else None

let mem_row r row = find_id r row >= 0

let mem r t = mem_row r (Row.of_tuple t)

(* ---- iteration ------------------------------------------------------- *)

(* [Row.compare] on two stored rows of the same arity, read in place
   from column [c] on; no closure, so a sort allocates nothing per
   comparison *)
let rec compare_from r a b c =
  if c >= r.arity then 0
  else
    let d = Intern.compare (cell r c a) (cell r c b) in
    if d <> 0 then d else compare_from r a b (c + 1)

let compare_ids r a b = compare_from r a b 0

let sort_ids r ids = Array.sort (compare_ids r) ids

let sorted_ids r =
  let ids = Array.init r.card Fun.id in
  sort_ids r ids;
  ids

let to_list r =
  Array.fold_right
    (fun id acc -> Array.init r.arity (fun c -> Intern.unpack (cell r c id)) :: acc)
    (sorted_ids r) []

let copy r =
  (* a relation with no rows of its own holds exactly its base's rows
     below its fork point: fork from there *)
  let base, lo = if r.card = r.lo then (r.base, r.lo) else (Some r, r.card) in
  {
    schema = r.schema;
    arity = r.arity;
    base;
    lo;
    cols = Array.init r.arity (fun _ -> Ichunks.create ());
    card = r.card;
    slots = Array.make 8 empty_slot;
    indexes = Hashtbl.create 4;
    counters = Array.make r.arity None;
    zones = Array.make r.arity None;
  }

let equal_contents r1 r2 =
  r1.card = r2.card
  && (r1.arity = r2.arity || r1.card = 0)
  &&
  let rec from id = id >= r1.card || (find_id r2 (row r1 id) >= 0 && from (id + 1)) in
  from 0

(* ---- probes ---------------------------------------------------------- *)

type bound_op = Blt | Ble | Bgt | Bge | Beq

type packed_view = {
  pv_arity : int;
  pv_cell : int -> int -> int;
  pv_all : unit -> int array * int;
  pv_probe : int list -> int array -> int array * int;
  pv_prune : (int * bound_op * int) list -> (int array * int * int * int) option;
  pv_before : (unit -> int) -> packed_view;
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
let row_ids = all_rows

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

(* The column's zone map of the chunks from the fork point's on, built
   on first use over every row so far and maintained by [note_insert]
   afterwards.  The chunk holding the fork point is summarised whole,
   the base's rows in it included. *)
let zone_for r col =
  match r.zones.(col) with
  | Some z -> z
  | None ->
      let first = r.lo lsr chunk_shift in
      let nchunks = ((r.card + chunk_mask) lsr chunk_shift) - first in
      let z =
        {
          zc_first = first;
          zc_mins = Array.make (max 4 nchunks) 0;
          zc_maxs = Array.make (max 4 nchunks) 0;
          zc_chunks = nchunks;
        }
      in
      for j = 0 to nchunks - 1 do
        let base = (first + j) lsl chunk_shift in
        let last = min (base + chunk_mask) (r.card - 1) in
        let lo = ref (cell r col base) and hi = ref (cell r col base) in
        for i = base + 1 to last do
          let v = cell r col i in
          if Intern.compare v !lo < 0 then lo := v;
          if Intern.compare v !hi > 0 then hi := v
        done;
        z.zc_mins.(j) <- !lo;
        z.zc_maxs.(j) <- !hi
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

(* May [chunk] hold a row with [cell col op k]?  A chunk wholly below
   the fork point is the base's, and full, so the base's interval for
   it is exact. *)
let rec chunk_admits r col chunk op k =
  let z = zone_for r col in
  if chunk < z.zc_first then
    match r.base with Some b -> chunk_admits b col chunk op k | None -> true
  else
    let j = chunk - z.zc_first in
    j >= z.zc_chunks || zone_admits ~lo:z.zc_mins.(j) ~hi:z.zc_maxs.(j) op k

(* Chunk-skip scan over the rows [0, n): row ids from chunks whose zone
   intervals can satisfy every bound, plus (visited, pruned) chunk
   counts. *)
let prune_rows r n bounds =
  if n = 0 then ([||], 0, 0, 0)
  else begin
    let chunk_ok chunk =
      List.for_all (fun (col, op, k) -> chunk_admits r col chunk op k) bounds
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

(* The one access-path decision over the rows from the fork point on:
   resolve a fixed (sorted, distinct) column set once, returning a
   probe on the packed values aligned with [cols] — the column set's
   own index, else (budget exhausted) a built single-column index on
   one of the columns with the rest filtered, else a filtered scan.
   The probe takes the row count [n] it reads: a scan walks only the
   rows [lo, n), and a filtered bucket only its ids below [n]; an
   unfiltered bucket is returned whole, for the caller to [cut].  Hit
   arrays may be internal index buckets shared with the store: they are
   read-only and invalidated by the next insert. *)
let resolve_own r cols =
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
            for row = n - 1 downto r.lo do
              if verify cols_arr vals row then begin
                out := row :: !out;
                incr hits
              end
            done;
            (Array.of_list !out, !hits))

(* [resolve_own], read through the bases too: the base's hits cut at
   the fork point, then the relation's own.  Both ascend, so their
   concatenation does; it is a fresh array only when both hold rows. *)
let rec resolve_probe r cols =
  let own = resolve_own r cols in
  match r.base with
  | None -> own
  | Some b ->
      let below = resolve_probe b cols and lo = r.lo in
      fun n vals ->
        let bn = min n lo in
        let ((bids, bl) as base_hits) = cut bn (below bn vals) in
        if n <= lo then base_hits
        else
          let ((oids, ol) as own_hits) = cut n (own n vals) in
          if ol = 0 then base_hits
          else if bl = 0 then own_hits
          else begin
            let ids = Array.make (bl + ol) 0 in
            Array.blit bids 0 ids 0 bl;
            Array.blit oids 0 ids bl ol;
            (ids, bl + ol)
          end

(* Subsumption probe.  A stored tuple (hole-free by
   [insert_row]) subsumes [incoming] iff it agrees with every
   non-hole position, so the candidates are exactly the rows matching
   the ground columns.  All-hole tuples are subsumed by anything; a
   non-conforming arity can match nothing (stored tuples always have
   the schema's arity).  Only the rows below [below] count. *)
let subsumed_row ?below r (incoming : Row.t) =
  let limit = match below with None -> r.card | Some n -> max 0 (min n r.card) in
  if not (Row.has_hole incoming) then
    let id = find_id r incoming in
    id >= 0 && id < limit
  else if Array.length incoming <> r.arity then false
  else begin
    let cols = ref [] and vals = ref [] in
    for col = r.arity - 1 downto 0 do
      let p = incoming.(col) in
      if not (Intern.is_hole p) then begin
        cols := col :: !cols;
        vals := p :: !vals
      end
    done;
    if !cols = [] then limit > 0
    else snd (cut limit (resolve_probe r !cols limit (Array.of_list !vals))) > 0
  end

let subsumed r incoming = subsumed_row r (Row.of_tuple incoming)

(* The rows [0, min card (limit ())): the whole, growing relation
   when [limit] is [max_int], a prefix of it otherwise, its bound read
   at every access.  Both share the relation's indexes and zone
   maps. *)
let rec view r limit =
  let rows () = min r.card (limit ()) in
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
    pv_before = (fun since -> view r (fun () -> min (limit ()) (max 0 (since ()))));
  }

let unbounded () = max_int

let packed_view r = view r unbounded

let check_col r col =
  if col < 0 || col >= r.arity then
    invalid_arg
      (Printf.sprintf "Relation.distinct_count: column %d out of range for %s" col (name r))

(* A fork's count is its base's below the fork point plus its own rows'
   values the base lacks there: what a full copy would count. *)
let rec distinct_count r ~col =
  check_col r col;
  match r.counters.(col) with
  | Some cn -> cn.cn_below + cn.cn_fresh
  | None -> (
      match (r.base, Hashtbl.find_opt r.indexes [ col ]) with
      | None, Some ix ->
          (* a single-column index already knows the answer for free *)
          Hashtbl.length ix.ix_tbl
      | _ ->
          let cn =
            {
              cn_seen = Hashtbl.create (max 16 ((r.card - r.lo) / 4));
              cn_below = below_distinct r col;
              cn_fresh = 0;
            }
          in
          for row = r.lo to r.card - 1 do
            count_value r col cn (cell r col row)
          done;
          r.counters.(col) <- Some cn;
          cn.cn_below + cn.cn_fresh)

and below_distinct r col =
  match r.base with
  | None -> 0
  | Some b when b.card = r.lo -> distinct_count b ~col
  | Some b ->
      (* the base grew since the fork: count its rows below the fork
         point afresh *)
      let seen = Hashtbl.create (max 16 (r.lo / 4)) in
      for row = 0 to r.lo - 1 do
        Hashtbl.replace seen (cell b col row) ()
      done;
      Hashtbl.length seen

let pp ppf r =
  Fmt.pf ppf "@[<v 2>%s [%d tuples]%a@]" (name r) (cardinal r)
    Fmt.(list ~sep:nop (fun ppf t -> Fmt.pf ppf "@,%a" Tuple.pp t))
    (to_list r)
