open Helpers
module Intern = Codb_relalg.Intern

let fresh () = Relation.create r_schema

(* Probe the way the evaluator does: through the packed view's one
   access path.  Bindings name distinct columns, in any order. *)
let pv_probe r bindings =
  let bindings = List.sort (fun (a, _) (b, _) -> Int.compare a b) bindings in
  let pv = Relation.packed_view r in
  let ids, n =
    pv.Relation.pv_probe (List.map fst bindings)
      (Array.of_list (List.map (fun (_, v') -> Intern.pack v') bindings))
  in
  List.init n (fun k ->
      Array.init pv.Relation.pv_arity (fun c -> Intern.unpack (pv.Relation.pv_cell c ids.(k))))

let test_insert_dedup () =
  let r = fresh () in
  Alcotest.(check bool) "first insert" true (Relation.insert r (tup [ i 1; i 2 ]));
  Alcotest.(check bool) "duplicate" false (Relation.insert r (tup [ i 1; i 2 ]));
  Alcotest.(check int) "cardinal" 1 (Relation.cardinal r)

let test_insert_rejects_bad_arity () =
  let r = fresh () in
  Alcotest.check_raises "arity"
    (Invalid_argument
       "Relation.insert: tuple (1) does not conform to r(a: int, b: int)")
    (fun () -> ignore (Relation.insert r (tup [ i 1 ])))

let test_insert_rejects_bad_type () =
  let r = fresh () in
  Alcotest.(check bool)
    "type mismatch raises" true
    (try
       ignore (Relation.insert r (tup [ i 1; s "x" ]));
       false
     with Invalid_argument _ -> true)

let test_insert_rejects_holes () =
  let r = fresh () in
  Alcotest.(check bool)
    "holes rejected" true
    (try
       ignore (Relation.insert r (tup [ i 1; Value.Hole 0 ]));
       false
     with Invalid_argument _ -> true)

let test_insert_accepts_nulls () =
  let r = fresh () in
  let null = Value.fresh_null ~rule:"r" in
  Alcotest.(check bool) "null ok" true (Relation.insert r (tup [ i 1; null ]))

let test_insert_all_returns_delta () =
  let r = fresh () in
  ignore (Relation.insert r (tup [ i 1; i 1 ]));
  let fresh_tuples =
    Relation.insert_all r [ tup [ i 1; i 1 ]; tup [ i 2; i 2 ]; tup [ i 2; i 2 ] ]
  in
  check_tuples "only new" [ tup [ i 2; i 2 ] ] fresh_tuples;
  Alcotest.(check int) "cardinal" 2 (Relation.cardinal r)

let test_subsumed () =
  let r = fresh () in
  let all_holes = tup [ Value.Hole 0; Value.Hole 1 ] in
  Alcotest.(check bool) "all holes, empty relation" false (Relation.subsumed r all_holes);
  let null = Value.fresh_null ~rule:"r" in
  ignore (Relation.insert r (tup [ i 1; null ]));
  ignore (Relation.insert r (tup [ i 2; i 5 ]));
  Alcotest.(check bool) "all holes, non-empty relation" true (Relation.subsumed r all_holes);
  Alcotest.(check bool) "hole subsumed by null" true
    (Relation.subsumed r (tup [ i 1; Value.Hole 0 ]));
  Alcotest.(check bool) "hole subsumed by concrete witness" true
    (Relation.subsumed r (tup [ i 2; Value.Hole 0 ]));
  Alcotest.(check bool) "hole with unknown key not subsumed" false
    (Relation.subsumed r (tup [ i 3; Value.Hole 0 ]));
  Alcotest.(check bool) "exact" true (Relation.subsumed r (tup [ i 2; i 5 ]));
  Alcotest.(check bool) "absent" false (Relation.subsumed r (tup [ i 9; i 9 ]))

let test_copy_is_independent () =
  let r = fresh () in
  ignore (Relation.insert r (tup [ i 1; i 1 ]));
  let r2 = Relation.copy r in
  ignore (Relation.insert r2 (tup [ i 2; i 2 ]));
  Alcotest.(check int) "original untouched" 1 (Relation.cardinal r);
  Alcotest.(check int) "copy grew" 2 (Relation.cardinal r2);
  Alcotest.(check bool) "contents equal check" false (Relation.equal_contents r r2)

let test_lookup_index () =
  let r = fresh () in
  ignore
    (Relation.insert_all r
       [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ]; tup [ i 2; i 10 ] ]);
  check_tuples "probe col 0" [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ] ]
    (pv_probe r [ (0, i 1) ]);
  check_tuples "probe col 1" [ tup [ i 1; i 10 ]; tup [ i 2; i 10 ] ]
    (pv_probe r [ (1, i 10) ]);
  check_tuples "probe miss" [] (pv_probe r [ (0, i 99) ]);
  Alcotest.(check int) "one index per column set" 2 (Relation.index_count r)

let test_lookup_index_invalidation () =
  let r = fresh () in
  ignore (Relation.insert r (tup [ i 1; i 10 ]));
  (* a probe resolved once, as the evaluator holds it, tracks inserts *)
  let probe = (Relation.packed_view r).Relation.pv_probe [ 0 ] in
  let hits () = snd (probe [| Intern.pack (i 1) |]) in
  Alcotest.(check int) "before" 1 (hits ());
  ignore (Relation.insert r (tup [ i 1; i 20 ]));
  Alcotest.(check int) "after insert" 2 (hits ());
  check_tuples "rows after insert" [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ] ]
    (pv_probe r [ (0, i 1) ])

let test_lookup_nulls_by_identity () =
  let r = fresh () in
  let n1 = Value.fresh_null ~rule:"x" and n2 = Value.fresh_null ~rule:"x" in
  ignore (Relation.insert_all r [ tup [ i 1; n1 ]; tup [ i 2; n2 ] ]);
  check_tuples "null key" [ tup [ i 1; n1 ] ] (pv_probe r [ (1, n1) ])

let test_copy_does_not_share_indexes () =
  let r = fresh () in
  ignore (Relation.insert r (tup [ i 1; i 10 ]));
  ignore (pv_probe r [ (0, i 1) ]);
  let r2 = Relation.copy r in
  ignore (Relation.insert r2 (tup [ i 1; i 20 ]));
  check_tuples "copy sees both" [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ] ]
    (pv_probe r2 [ (0, i 1) ]);
  check_tuples "original index unchanged" [ tup [ i 1; i 10 ] ] (pv_probe r [ (0, i 1) ])

let test_lookup_cols () =
  let r = fresh () in
  ignore
    (Relation.insert_all r
       [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ]; tup [ i 2; i 10 ] ]);
  check_tuples "composite probe" [ tup [ i 1; i 10 ] ]
    (pv_probe r [ (0, i 1); (1, i 10) ]);
  check_tuples "order of bindings irrelevant" [ tup [ i 1; i 10 ] ]
    (pv_probe r [ (1, i 10); (0, i 1) ]);
  check_tuples "single binding = single-column probe"
    [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ] ]
    (pv_probe r [ (0, i 1) ]);
  check_tuples "miss" [] (pv_probe r [ (0, i 1); (1, i 99) ])

let test_composite_index_maintained () =
  let r = fresh () in
  ignore (Relation.insert r (tup [ i 1; i 10 ]));
  (* build the composite index, then insert: the probe must track the
     contents without a rebuild *)
  check_tuples "before" [ tup [ i 1; i 10 ] ] (pv_probe r [ (0, i 1); (1, i 10) ]);
  let indexes_before = Relation.index_count r in
  ignore (Relation.insert r (tup [ i 1; i 20 ]));
  ignore (Relation.insert r (tup [ i 2; i 10 ]));
  check_tuples "sees inserts" [ tup [ i 1; i 20 ] ] (pv_probe r [ (0, i 1); (1, i 20) ]);
  Alcotest.(check int) "no index was dropped or added" indexes_before
    (Relation.index_count r)

let test_distinct_count () =
  let r = fresh () in
  ignore
    (Relation.insert_all r
       [ tup [ i 1; i 10 ]; tup [ i 1; i 20 ]; tup [ i 2; i 10 ] ]);
  Alcotest.(check int) "col 0" 2 (Relation.distinct_count r ~col:0);
  Alcotest.(check int) "col 1" 2 (Relation.distinct_count r ~col:1);
  (* maintained incrementally from here on *)
  ignore (Relation.insert r (tup [ i 3; i 10 ]));
  Alcotest.(check int) "after insert" 3 (Relation.distinct_count r ~col:0);
  ignore (Relation.insert r (tup [ i 3; i 30 ]));
  Alcotest.(check int) "repeated value not recounted" 3 (Relation.distinct_count r ~col:0);
  Alcotest.(check bool) "out of range raises" true
    (try
       ignore (Relation.distinct_count r ~col:5);
       false
     with Invalid_argument _ -> true)

(* Past the budget of 16 indexes, a probe on a new column set reuses a
   built single-column index on one of its columns and filters the
   rest, or else scans.  Every answer must equal a filtered scan. *)
let test_index_budget () =
  let schema =
    Schema.make "w" (List.map (fun a -> (a, Value.Tint)) [ "a"; "b"; "c"; "d"; "e" ])
  in
  let r = Relation.create schema in
  for k = 0 to 209 do
    ignore (Relation.insert r (tup [ i (k mod 2); i (k mod 3); i (k mod 5); i (k mod 7); i k ]))
  done;
  let rows = Relation.to_list r in
  let check_probe cols =
    List.iter
      (fun witness ->
        let bindings = List.map (fun c -> (c, witness.(c))) cols in
        let expected =
          List.filter (fun t -> List.for_all (fun (c, v') -> Value.equal t.(c) v') bindings) rows
        in
        check_tuples
          (Printf.sprintf "probe on [%s]" (String.concat ";" (List.map string_of_int cols)))
          expected (pv_probe r bindings))
      [ List.nth rows 0; List.nth rows 101; tup [ i 9; i 9; i 9; i 9; i 9 ] ]
  in
  let over_budget = [ [ 2 ]; [ 3; 4 ]; [ 0; 2 ]; [ 1; 3; 4 ] ] in
  let within_budget =
    let rec subsets = function
      | [] -> [ [] ]
      | c :: rest ->
          let tails = subsets rest in
          List.map (fun t -> c :: t) tails @ tails
    in
    let multi =
      List.filter
        (fun cs -> List.length cs >= 2 && not (List.mem cs over_budget))
        (subsets [ 0; 1; 2; 3; 4 ])
    in
    [ [ 0 ]; [ 1 ] ] @ List.filteri (fun k _ -> k < 14) multi
  in
  List.iter check_probe within_budget;
  Alcotest.(check int) "budget reached" 16 (Relation.index_count r);
  (* [2] and [3; 4] have no built single-column index: filtered scans;
     [0; 2] and [1; 3; 4] reuse [0] and [1] and filter the rest *)
  List.iter check_probe over_budget;
  Alcotest.(check int) "nothing built past the budget" 16 (Relation.index_count r);
  ignore (Relation.insert r (tup [ i 0; i 0; i 0; i 0; i 1000 ]));
  let rows' = Relation.to_list r in
  Alcotest.(check int) "insert lands" 211 (List.length rows');
  check_tuples "over-budget scan sees the insert"
    (List.filter (fun t -> Value.equal t.(2) (i 0)) rows')
    (pv_probe r [ (2, i 0) ])

(* [pv_before since] is the relation as it stood before row [since]:
   every access path — index probes (single-column, composite,
   over-budget filtered and scanned), the identity scan and zone-map
   scans — returns exactly the full view's ascending ids below the
   watermark. *)
let test_prefix_view_cuts_every_path () =
  let schema =
    Schema.make "w" (List.map (fun a -> (a, Value.Tint)) [ "a"; "b"; "c"; "d"; "e" ])
  in
  let r = Relation.create schema in
  for k = 0 to 9999 do
    ignore (Relation.insert r (tup [ i (k mod 2); i (k mod 3); i (k mod 5); i (k mod 7); i k ]))
  done;
  let full = Relation.packed_view r in
  let ids (a, n) = Array.to_list (Array.sub a 0 n) in
  let ascending l = List.sort_uniq compare l = l in
  let col_sets =
    (* sixteen indexed column sets, then two past the budget: [1; 2; 3]
       filters a built single-column index, [3] scans *)
    [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ]; [ 0; 3 ]; [ 1; 3 ]; [ 2; 3 ];
      [ 0; 4 ]; [ 1; 4 ]; [ 2; 4 ]; [ 3; 4 ]; [ 0; 1; 2 ]; [ 0; 1; 3 ];
      [ 0; 2; 3 ]; [ 2 ]; [ 1; 2; 3 ]; [ 3 ] ]
  in
  List.iter
    (fun since ->
      let old = full.Relation.pv_before (fun () -> since) in
      let label what = Printf.sprintf "since %d: %s" since what in
      Alcotest.(check (list int)) (label "pv_all") (List.init (min since 10000) Fun.id)
        (ids (old.Relation.pv_all ()));
      List.iter
        (fun cols ->
          let vals = Array.of_list (List.map (fun c -> Intern.pack (i (c mod 2))) cols) in
          let whole = ids (full.Relation.pv_probe cols vals) in
          let cut = ids (old.Relation.pv_probe cols vals) in
          Alcotest.(check bool) (label "probe hits ascend") true (ascending whole);
          Alcotest.(check (list int)) (label "probe cut")
            (List.filter (fun id -> id < since) whole) cut)
        col_sets;
      let bounds = [ (4, Relation.Bge, Intern.pack (i 5000)) ] in
      match (full.Relation.pv_prune bounds, old.Relation.pv_prune bounds) with
      | Some (w, wn, _, _), Some (o, on, visited, pruned) ->
          Alcotest.(check (list int)) (label "zone scan cut")
            (List.filter (fun id -> id < since) (ids (w, wn))) (ids (o, on));
          Alcotest.(check int) (label "only chunks below the watermark")
            ((min since 10000 + 4095) / 4096) (visited + pruned)
      | _ -> Alcotest.fail "columnar relation offered no zone maps")
    [ 0; 1; 2500; 4096; 6000; 9999; 10000; 20000 ];
  Alcotest.(check int) "budget reached" 16 (Relation.index_count r);
  (* the over-budget paths walk only the rows below the watermark: on a
     100-row prefix the filtered probe and the scan allocate a small
     fraction of what they do on the whole relation *)
  let bytes f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  List.iter
    (fun cols ->
      let vals = Array.of_list (List.map (fun c -> Intern.pack (i (c mod 2))) cols) in
      let whole = full.Relation.pv_probe cols and cut = (full.Relation.pv_before (fun () -> 100)).pv_probe cols in
      (* the first call resolves the access path *)
      ignore (whole vals, cut vals);
      let w = bytes (fun () -> whole vals) and c = bytes (fun () -> cut vals) in
      Alcotest.(check bool)
        (Printf.sprintf "probe %s below the watermark: %.0f of %.0f bytes"
           (String.concat "," (List.map string_of_int cols)) c w)
        true
        (c *. 10. < w))
    [ [ 1; 2; 3 ]; [ 3 ] ]

let test_to_list_sorted () =
  let r = fresh () in
  ignore (Relation.insert_all r [ tup [ i 3; i 0 ]; tup [ i 1; i 0 ]; tup [ i 2; i 0 ] ]);
  let ks = List.map (fun t -> t.(0)) (Relation.to_list r) in
  Alcotest.(check bool) "sorted" true (ks = [ i 1; i 2; i 3 ])

(* ---- differential testing against the seed engine ------------------- *)

module Ref = Relation_ref
module Q2 = QCheck2
module Gen = QCheck2.Gen

(* int x string columns so the intern table is on the critical path *)
let mixed_schema = Schema.make "m" [ ("a", Value.Tint); ("b", Value.Tstring) ]

type op =
  | Insert of Tuple.t
  | Probe of (int * Value.t) list
  | Subsumed of Tuple.t
  | Mem of Tuple.t
  | Distinct of int
  | Copy

(* mostly a small domain, so inserts collide and probes hit, with a
   wide tail that grows a relation through several row-index resizes *)
let gen_a = Gen.map i (Gen.frequency [ (3, Gen.int_range 0 4); (2, Gen.int_range 0 199) ])

let gen_b = Gen.map s (Gen.oneofl [ "u"; "v"; "w" ])

let gen_mixed_tuple = Gen.map2 (fun a b -> tup [ a; b ]) gen_a gen_b

(* holes allowed: only [Subsumed] probes with these *)
let gen_holey_tuple =
  Gen.map2
    (fun a b -> tup [ a; b ])
    (Gen.oneof [ gen_a; Gen.return (Value.Hole 0) ])
    (Gen.oneof [ gen_b; Gen.return (Value.Hole 1) ])

(* a probe binds a non-empty set of distinct columns, as the planner's
   probes do *)
let gen_bindings =
  Gen.oneof
    [
      Gen.map (fun a -> [ (0, a) ]) gen_a;
      Gen.map (fun b -> [ (1, b) ]) gen_b;
      Gen.map2 (fun a b -> [ (0, a); (1, b) ]) gen_a gen_b;
    ]

let gen_op =
  Gen.frequency
    [
      (6, Gen.map (fun t -> Insert t) gen_mixed_tuple);
      (6, Gen.map (fun bs -> Probe bs) gen_bindings);
      (2, Gen.map (fun t -> Subsumed t) gen_holey_tuple);
      (2, Gen.map (fun t -> Mem t) gen_mixed_tuple);
      (1, Gen.map (fun c -> Distinct c) (Gen.int_range 0 1));
      (1, Gen.return Copy);
    ]

(* Run one op against both engines; any observable disagreement fails
   the property. *)
let apply_op (r, o) op =
  match op with
  | Insert t -> Relation.insert r t = Ref.insert o t
  | Probe bs -> sorted_tuples (pv_probe r bs) = sorted_tuples (Ref.lookup_cols o bs)
  | Subsumed t -> Relation.subsumed r t = Ref.subsumed o t
  | Mem t -> Relation.mem r t = Ref.mem o t
  | Distinct c -> Relation.distinct_count r ~col:c = Ref.distinct_count o ~col:c
  | Copy -> true

let prop_columnar_matches_seed =
  Q2.Test.make ~name:"columnar engine = seed engine on random op interleavings"
    ~count:300
    (Gen.list_size (Gen.int_range 0 200) (Gen.pair gen_op Gen.nat))
    (fun ops ->
      (* every copy stays live: each op goes to the original or to one of
         the copies, and each is checked against its own reference, so a
         copy aliasing its original (or the reverse) shows as a
         disagreement *)
      let live = ref [ (Relation.create mixed_schema, Ref.create mixed_schema) ] in
      List.for_all
        (fun (op, pick) ->
          let ((r, o) as engines) = List.nth !live (pick mod List.length !live) in
          (match op with
          | Copy -> live := !live @ [ (Relation.copy r, Ref.copy o) ]
          | _ -> ());
          apply_op engines op)
        ops
      && List.for_all
           (fun (r, o) ->
             Relation.to_list r = Ref.to_list o && Relation.cardinal r = Ref.cardinal o)
           !live)

(* [Row.Table] and the row index pick buckets by the hash's low bits.
   Correlated columns must not cluster them: the cell mix alone put
   the rows (k, k) in 451 of 4 096 low-12-bit buckets, where a uniform
   hash fills ~2 590. *)
let test_row_hash_spreads_low_bits () =
  let buckets = Hashtbl.create 4096 in
  for k = 0 to 4095 do
    Hashtbl.replace buckets (Row.hash (Row.of_tuple (tup [ i k; i k ])) land 4095) ()
  done;
  let filled = Hashtbl.length buckets in
  Alcotest.(check bool)
    (Printf.sprintf "(k, k) rows fill %d of 4096 buckets (bound 2400)" filled)
    true (filled >= 2400)

(* The row index probes from [Relation.row_hash row] modulo its
   power-of-two capacity.  Rows whose hashes all end in seven one bits
   start their probe chain at the last slot of every table up to 128
   slots, so the chains wrap around the end; they must still be found,
   kept apart and rehashed on every resize. *)
let test_probe_chains_wrap () =
  let r = fresh () and o = Ref.create r_schema in
  let colliding =
    Seq.ints 0
    |> Seq.map (fun k -> tup [ i k; i (k * 3) ])
    |> Seq.filter (fun t -> Relation.row_hash (Row.of_tuple t) land 127 = 127)
    |> Seq.take 60 |> List.of_seq
  in
  List.iter
    (fun t ->
      Alcotest.(check bool) "fresh" true (Relation.insert r t);
      ignore (Ref.insert o t);
      (* every row so far is still found, and none inserted twice *)
      Alcotest.(check bool) "duplicate" false (Relation.insert r t))
    colliding;
  List.iter
    (fun t ->
      Alcotest.(check bool) "member" true (Relation.mem r t);
      Alcotest.(check bool) "subsumed" true (Relation.subsumed r t))
    colliding;
  Alcotest.(check bool) "absent row" false (Relation.mem r (tup [ i (-1); i (-1) ]));
  Alcotest.(check int) "cardinal" 60 (Relation.cardinal r);
  let c = Relation.copy r in
  List.iter (fun t -> Alcotest.(check bool) "copy member" true (Relation.mem c t)) colliding;
  check_tuples "contents" (Ref.to_list o) (Relation.to_list r)

(* The row path allocates nothing per probe: [mem_row], a duplicate
   [insert_row] and [subsumed_row] on a ground row read the row index
   and compare cells in place.  A fresh [insert_row] pays only for
   amortized growth of the column chunks and the row index.  Minor words
   are exact on OCaml 5 native code; bytecode boxes differently, so the
   case only runs natively. *)
let test_row_path_allocation () =
  if Sys.backend_type = Sys.Native then begin
    let n = 2000 in
    let rows = Array.init n (fun k -> Row.of_tuple (tup [ i k; i (k mod 13) ])) in
    let r = fresh () in
    Array.iter (fun row -> ignore (Relation.insert_row r row)) rows;
    let words f =
      let before = Gc.minor_words () in
      for k = 0 to n - 1 do
        ignore (Sys.opaque_identity (f rows.(k)))
      done;
      Gc.minor_words () -. before
    in
    let empty = words (fun _ -> true) in
    List.iter
      (fun (what, f) ->
        let net = words f -. empty in
        Alcotest.(check (float 0.)) (what ^ ": minor words net of an empty loop") 0. net)
      [
        ("mem_row", Relation.mem_row r);
        ("duplicate insert_row", Relation.insert_row r);
        ("subsumed_row on a ground row", Relation.subsumed_row r);
      ];
    (* growth arrays past 256 words skip the minor heap: count them too *)
    let allocated_words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let into = fresh () in
    let before = allocated_words () in
    Array.iter (fun row -> ignore (Relation.insert_row into row)) rows;
    let per_row = (allocated_words () -. before) /. float_of_int n in
    Alcotest.(check int) "all fresh" n (Relation.cardinal into);
    Alcotest.(check bool)
      (Printf.sprintf "fresh insert_row: %.1f words per row (bound 16)" per_row)
      true (per_row < 16.)
  end

(* --- zone maps ------------------------------------------------------ *)

(* the row-level semantics pruning must stay sound against: every
   bound holds on the packed cell *)
let row_matches pv bounds id =
  List.for_all
    (fun (col, op, k) ->
      let c = Intern.compare (pv.Relation.pv_cell col id) k in
      match op with
      | Relation.Blt -> c < 0
      | Relation.Ble -> c <= 0
      | Relation.Bgt -> c > 0
      | Relation.Bge -> c >= 0
      | Relation.Beq -> c = 0)
    bounds

let ids_set (ids, n) = List.sort_uniq compare (Array.to_list (Array.sub ids 0 n))

let check_prune_sound r bounds =
  let pv = Relation.packed_view r in
  match pv.Relation.pv_prune bounds with
  | None -> Alcotest.fail "columnar relation offered no zone maps"
  | Some (ids, n, visited, pruned) ->
      let all = ids_set (pv.Relation.pv_all ()) in
      let survivors = ids_set (ids, n) in
      List.iter
        (fun id ->
          Alcotest.(check bool) "survivor is a stored row" true (List.mem id all))
        survivors;
      List.iter
        (fun id ->
          if row_matches pv bounds id then
            Alcotest.(check bool) "no matching row was pruned" true
              (List.mem id survivors))
        all;
      (visited, pruned)

let test_zone_prune_selective () =
  let r = fresh () in
  for k = 0 to 9999 do
    ignore (Relation.insert r (tup [ i k; i (k * 7) ]))
  done;
  let lt100 = [ (0, Relation.Blt, Intern.pack (i 100)) ] in
  let visited, pruned = check_prune_sound r lt100 in
  (* 10000 rows = 3 chunks of 4096; only the first can hold a < 100 *)
  Alcotest.(check int) "all chunks accounted" 3 (visited + pruned);
  Alcotest.(check int) "two chunks skipped" 2 pruned;
  let top = [ (0, Relation.Bge, Intern.pack (i 9000)) ] in
  let _, pruned = check_prune_sound r top in
  Alcotest.(check int) "leading chunks skipped" 2 pruned;
  let none = [ (0, Relation.Bgt, Intern.pack (i 10000)) ] in
  let visited, pruned = check_prune_sound r none in
  Alcotest.(check int) "empty range visits nothing" 0 visited;
  Alcotest.(check int) "empty range prunes everything" 3 pruned;
  (* a copy neither shares nor loses the zones *)
  let r' = Relation.copy r in
  ignore (Relation.insert r' (tup [ i 20000; i 20000 ]));
  let _, pruned = check_prune_sound r' none in
  Alcotest.(check int) "copy sees its insert" 2 pruned;
  let _, pruned = check_prune_sound r none in
  Alcotest.(check int) "original unchanged by the copy's insert" 3 pruned

let test_zone_prune_strings () =
  let r = Relation.create mixed_schema in
  List.iteri
    (fun k name -> ignore (Relation.insert r (tup [ i k; s name ])))
    [ "alpha"; "beta"; "gamma"; "delta"; "epsilon"; "zeta" ];
  ignore
    (check_prune_sound r [ (1, Relation.Bge, Intern.pack (s "delta")) ] : int * int);
  ignore
    (check_prune_sound r [ (1, Relation.Beq, Intern.pack (s "beta")) ] : int * int)

let gen_bound =
  Gen.map2
    (fun (col, k) op -> (col, op, k))
    (Gen.oneof
       [
         Gen.map (fun v' -> (0, Intern.pack v')) gen_a;
         Gen.map (fun v' -> (1, Intern.pack v')) gen_b;
       ])
    (Gen.oneofl [ Relation.Blt; Relation.Ble; Relation.Bgt; Relation.Bge; Relation.Beq ])

let prop_zone_prune_sound =
  Q2.Test.make ~name:"zone-map pruning never drops a matching row" ~count:300
    (Gen.pair
       (Gen.list_size (Gen.int_range 0 60) gen_mixed_tuple)
       (Gen.list_size (Gen.int_range 0 3) gen_bound))
    (fun (ts, bounds) ->
      let r = Relation.create mixed_schema in
      List.iter (fun t -> ignore (Relation.insert r t)) ts;
      let pv = Relation.packed_view r in
      match pv.Relation.pv_prune bounds with
      | None -> true
      | Some (ids, n, _, _) ->
          let all = ids_set (pv.Relation.pv_all ()) in
          let survivors = ids_set (ids, n) in
          List.for_all (fun id -> List.mem id all) survivors
          && List.for_all
               (fun id -> (not (row_matches pv bounds id)) || List.mem id survivors)
               all)

let suite =
  [
    Alcotest.test_case "insert deduplicates" `Quick test_insert_dedup;
    Alcotest.test_case "insert rejects bad arity" `Quick test_insert_rejects_bad_arity;
    Alcotest.test_case "insert rejects bad type" `Quick test_insert_rejects_bad_type;
    Alcotest.test_case "insert rejects holes" `Quick test_insert_rejects_holes;
    Alcotest.test_case "insert accepts marked nulls" `Quick test_insert_accepts_nulls;
    Alcotest.test_case "insert_all returns the delta" `Quick test_insert_all_returns_delta;
    Alcotest.test_case "null-aware subsumption lookup" `Quick test_subsumed;
    Alcotest.test_case "copy independence" `Quick test_copy_is_independent;
    Alcotest.test_case "to_list is sorted" `Quick test_to_list_sorted;
    Alcotest.test_case "hash index lookup" `Quick test_lookup_index;
    Alcotest.test_case "index invalidation on mutation" `Quick
      test_lookup_index_invalidation;
    Alcotest.test_case "index keys nulls by identity" `Quick
      test_lookup_nulls_by_identity;
    Alcotest.test_case "copy does not share indexes" `Quick
      test_copy_does_not_share_indexes;
    Alcotest.test_case "composite lookup" `Quick test_lookup_cols;
    Alcotest.test_case "composite index maintained incrementally" `Quick
      test_composite_index_maintained;
    Alcotest.test_case "distinct-value statistics" `Quick test_distinct_count;
    Alcotest.test_case "index budget degrades to scans" `Quick test_index_budget;
    Alcotest.test_case "prefix view cuts every access path" `Quick
      test_prefix_view_cuts_every_path;
    QCheck_alcotest.to_alcotest prop_columnar_matches_seed;
    Alcotest.test_case "row hash spreads correlated columns" `Quick
      test_row_hash_spreads_low_bits;
    Alcotest.test_case "row-index probe chains wrap around" `Quick test_probe_chains_wrap;
    Alcotest.test_case "row probes allocate nothing" `Quick test_row_path_allocation;
    Alcotest.test_case "zone maps prune selective ranges" `Quick
      test_zone_prune_selective;
    Alcotest.test_case "zone maps order interned strings" `Quick
      test_zone_prune_strings;
    QCheck_alcotest.to_alcotest prop_zone_prune_sound;
  ]
