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

(* [~below] counts only the rows below that id: the relation as it
   stood before they were appended. *)
let test_subsumed_below () =
  let r = fresh () in
  ignore (Relation.insert_all r [ tup [ i 1; i 1 ]; tup [ i 2; i 2 ] ]);
  let sub below t = Relation.subsumed_row ~below r (Row.of_tuple t) in
  Alcotest.(check bool) "a hole row matching row 1, below 1" false (sub 1 (tup [ i 2; Value.Hole 0 ]));
  Alcotest.(check bool) "a hole row matching row 0, below 1" true (sub 1 (tup [ i 1; Value.Hole 0 ]));
  Alcotest.(check bool) "row 1 itself, below 1" false (sub 1 (tup [ i 2; i 2 ]));
  Alcotest.(check bool) "row 1 itself, below 2" true (sub 2 (tup [ i 2; i 2 ]));
  Alcotest.(check bool) "all holes, below 0" false (sub 0 (tup [ Value.Hole 0; Value.Hole 1 ]));
  Alcotest.(check bool) "all holes, below 1" true (sub 1 (tup [ Value.Hole 0; Value.Hole 1 ]));
  Alcotest.(check bool) "past the end" true (sub 99 (tup [ i 2; Value.Hole 0 ]))

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
  | Copy of Tuple.t
  | Check

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
      (1, Gen.map (fun t -> Copy t) gen_mixed_tuple);
      (1, Gen.return Check);
    ]

(* A relation holding the same rows, inserted in row-id order, so the
   ids agree too.  A copy reads the rows it started with through its
   source (and a copy of a copy through both); the rebuild reads
   everything through itself. *)
let rebuild r =
  let fresh = Relation.create (Relation.schema r) in
  for id = 0 to Relation.cardinal r - 1 do
    ignore (Relation.insert_row fresh (Relation.row r id))
  done;
  fresh

let view_ids (ids, n) = Array.to_list (Array.sub ids 0 n)

(* Every answer of [r], on every access path, equals its rebuild's:
   membership, subsumption, row ids, probes, zone-map scans (their
   chunk counts included) and distinct counts, on the whole relation
   and on prefix views cut at [cuts]. *)
let matches_rebuild ?(cuts = []) ~probe_tuples ~bindings ~bounds r =
  let fresh = rebuild r in
  let same f = f r = f fresh in
  let views x =
    let pv = Relation.packed_view x in
    pv :: List.map (fun k -> pv.Relation.pv_before (fun () -> k)) cuts
  in
  List.for_all
    (fun t ->
      let ground = Array.for_all (fun v' -> not (Value.is_hole v')) t in
      same (fun x -> Relation.subsumed x t)
      && ((not ground)
         || same (fun x -> Relation.mem x t)
            && same (fun x -> Relation.find_row x (Row.of_tuple t))
            && same (fun x -> Relation.subsumed_row ~below:(Relation.cardinal x / 2) x (Row.of_tuple t))))
    probe_tuples
  && List.for_all2
       (fun pv pv' ->
         view_ids (pv.Relation.pv_all ()) = view_ids (pv'.Relation.pv_all ())
         && List.for_all
              (fun bs ->
                let cols = List.map fst bs
                and vals = Array.of_list (List.map (fun (_, v') -> Intern.pack v') bs) in
                view_ids (pv.Relation.pv_probe cols vals) = view_ids (pv'.Relation.pv_probe cols vals))
              bindings
         && List.for_all
              (fun b ->
                match (pv.Relation.pv_prune b, pv'.Relation.pv_prune b) with
                | Some (ids, n, v1, p1), Some (ids', n', v2, p2) ->
                    view_ids (ids, n) = view_ids (ids', n') && v1 = v2 && p1 = p2
                | _ -> false)
              bounds)
       (views r) (views fresh)
  && List.for_all
       (fun col -> same (fun x -> Relation.distinct_count x ~col))
       (List.init (Schema.arity (Relation.schema r)) Fun.id)
  && same Relation.to_list

(* Run one op against both engines; any observable disagreement fails
   the property. *)
let apply_op (r, o) op =
  match op with
  | Insert t -> Relation.insert r t = Ref.insert o t
  | Probe bs -> sorted_tuples (pv_probe r bs) = sorted_tuples (Ref.lookup_cols o bs)
  | Subsumed t -> Relation.subsumed r t = Ref.subsumed o t
  | Mem t -> Relation.mem r t = Ref.mem o t
  | Distinct c -> Relation.distinct_count r ~col:c = Ref.distinct_count o ~col:c
  | Copy t -> Relation.insert r t = Ref.insert o t
  | Check -> true

(* the mixed schema's probe set for [matches_rebuild]: hits, misses
   and holes in every position *)
let mixed_checks r =
  let a_vals = List.map i [ 0; 1; 2; 4; 150 ] and b_vals = List.map s [ "u"; "v"; "w" ] in
  let ground = List.concat_map (fun a -> List.map (fun b -> tup [ a; b ]) b_vals) a_vals in
  let holey =
    tup [ Value.Hole 0; Value.Hole 1 ]
    :: (List.map (fun a -> tup [ a; Value.Hole 1 ]) a_vals
       @ List.map (fun b -> tup [ Value.Hole 0; b ]) b_vals)
  in
  let n = Relation.cardinal r in
  matches_rebuild ~cuts:[ 0; n / 2; n ] ~probe_tuples:(ground @ holey)
    ~bindings:[ [ (0, i 1) ]; [ (1, s "v") ]; [ (0, i 2); (1, s "u") ]; [ (0, i 150) ] ]
    ~bounds:
      [
        [];
        [ (0, Relation.Bge, Intern.pack (i 3)) ];
        [ (1, Relation.Beq, Intern.pack (s "w")) ];
        [ (0, Relation.Blt, Intern.pack (i 100)); (1, Relation.Ble, Intern.pack (s "v")) ];
      ]
    r

let prop_columnar_matches_seed =
  Q2.Test.make ~name:"columnar engine = seed engine on random op interleavings"
    ~count:300
    (Gen.list_size (Gen.int_range 0 200) (Gen.pair gen_op Gen.nat))
    (fun ops ->
      (* every copy stays live: each op goes to the original or to one of
         the copies, and each is checked against its own reference, so a
         copy aliasing its original (or the reverse) shows as a
         disagreement.  A copy is a fork (and a copy of a copy a fork of
         a fork): its source gets an insert right after it, and [Check]
         and the end compare each relation with its rebuild. *)
      let live = ref [ (Relation.create mixed_schema, Ref.create mixed_schema) ] in
      List.for_all
        (fun (op, pick) ->
          let ((r, o) as engines) = List.nth !live (pick mod List.length !live) in
          (match op with
          | Copy _ -> live := !live @ [ (Relation.copy r, Ref.copy o) ]
          | _ -> ());
          apply_op engines op && (op <> Check || mixed_checks r))
        ops
      && List.for_all
           (fun (r, o) ->
             Relation.to_list r = Ref.to_list o
             && Relation.cardinal r = Ref.cardinal o
             && mixed_checks r)
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

(* A copy reads the rows it started with through its source: the
   source's later inserts must stay invisible to it on every path,
   a probe prepared and resolved on the copy before the insert
   included, and the copy's own inserts invisible to the source. *)
let test_fork_isolated_from_source_inserts () =
  let r = fresh () in
  for k = 0 to 9 do
    ignore (Relation.insert r (tup [ i (k mod 3); i k ]))
  done;
  (* the source's index and counter exist before the copy *)
  ignore (pv_probe r [ (0, i 1) ]);
  ignore (Relation.distinct_count r ~col:0);
  let f = Relation.copy r in
  let pv = Relation.packed_view f in
  let probe = pv.Relation.pv_probe [ 0 ] in
  let hits () = List.length (view_ids (probe [| Intern.pack (i 1) |])) in
  Alcotest.(check int) "prepared probe before" 3 (hits ());
  let added = tup [ i 1; i 100 ] and beyond = tup [ i 7; i 7 ] in
  ignore (Relation.insert r added);
  ignore (Relation.insert r beyond);
  Alcotest.(check int) "prepared probe after the source's insert" 3 (hits ());
  check_tuples "a new probe" [ tup [ i 1; i 1 ]; tup [ i 1; i 4 ]; tup [ i 1; i 7 ] ]
    (pv_probe f [ (0, i 1) ]);
  Alcotest.(check bool) "mem" false (Relation.mem f added);
  Alcotest.(check bool) "find_row" true (Relation.find_row f (Row.of_tuple added) = None);
  Alcotest.(check bool) "subsumed" false (Relation.subsumed f (tup [ i 7; Value.Hole 0 ]));
  Alcotest.(check int) "cardinal" 10 (Relation.cardinal f);
  Alcotest.(check int) "distinct_count" 3 (Relation.distinct_count f ~col:0);
  Alcotest.(check int) "the source's count moved" 4 (Relation.distinct_count r ~col:0);
  Alcotest.(check int) "pv_all" 10 (List.length (view_ids (pv.Relation.pv_all ())));
  let seven = [ (0, Relation.Bge, Intern.pack (i 7)) ] in
  (match pv.Relation.pv_prune seven with
  | Some (_, n, visited, pruned) ->
      Alcotest.(check (list int)) "zone scan skips the source's row" [ 0; 0; 1 ]
        [ n; visited; pruned ]
  | None -> Alcotest.fail "no zone maps");
  Alcotest.(check bool) "the copy holds what it was copied from" true
    (Relation.to_list f = List.filter (fun t -> not (List.mem t [ added; beyond ])) (Relation.to_list r));
  (* the other way: the copy's inserts stay its own *)
  ignore (Relation.insert f (tup [ i 1; i 200 ]));
  Alcotest.(check int) "the copy's prepared probe sees its insert" 4 (hits ());
  Alcotest.(check bool) "the source lacks it" false (Relation.mem r (tup [ i 1; i 200 ]));
  Alcotest.(check bool) "the copy still lacks the source's" false (Relation.mem f added);
  Alcotest.(check bool) "a row both hold separately is one row each" true
    (Relation.insert f added && Relation.mem f added && Relation.cardinal f = 12)

(* Forks of forks across chunk boundaries: each fork's chunks wholly
   below its fork point come from its source's zone maps, the chunk
   holding the fork point from its own.  Every access path must agree
   with a rebuild, the zone-map chunk counts and prefix views cut at
   and around the chunk boundaries included, while every relation of
   the chain keeps growing. *)
let test_fork_chain_across_chunks () =
  let r = fresh () in
  let add rel lo hi = for k = lo to hi - 1 do ignore (Relation.insert rel (tup [ i k; i (k mod 13) ])) done in
  add r 0 5000;
  let f1 = Relation.copy r in
  add f1 5000 9000;
  add r 20_000 20_100;
  let f2 = Relation.copy f1 in
  let f3 = Relation.copy f2 in
  (* f3 forks a fork with no rows of its own *)
  add f2 9000 13_000;
  add f1 30_000 30_500;
  add f3 40_000 40_010;
  let check name rel =
    let probe_tuples =
      List.concat_map
        (fun k -> [ tup [ i k; i (k mod 13) ]; tup [ i k; Value.Hole 0 ]; tup [ Value.Hole 0; i k ] ])
        [ 0; 4095; 4096; 5000; 8999; 9000; 12_999; 20_000; 30_000; 40_000; 50_000 ]
    in
    let n = Relation.cardinal rel in
    Alcotest.(check bool) (name ^ " agrees with its rebuild") true
      (matches_rebuild
         ~cuts:[ 0; 4095; 4096; 5000; 8192; 9000; n - 1; n ]
         ~probe_tuples
         ~bindings:[ [ (0, i 4096) ]; [ (1, i 3) ]; [ (0, i 9000); (1, i 4) ]; [ (0, i 20_000) ] ]
         ~bounds:
           [
             [ (0, Relation.Bge, Intern.pack (i 9000)) ];
             [ (0, Relation.Blt, Intern.pack (i 4000)) ];
             [ (0, Relation.Beq, Intern.pack (i 40_005)); (1, Relation.Ble, Intern.pack (i 6)) ];
           ]
         rel)
  in
  List.iter (fun (name, rel) -> check name rel) [ ("r", r); ("f1", f1); ("f2", f2); ("f3", f3) ];
  Alcotest.(check (list int)) "cardinals" [ 5100; 9500; 13_000; 9010 ]
    (List.map Relation.cardinal [ r; f1; f2; f3 ]);
  (* the checks built indexes and zone maps everywhere; growth after
     that keeps every relation in agreement *)
  add r 60_000 61_000;
  add f1 61_000 62_000;
  add f2 62_000 63_000;
  add f3 63_000 64_000;
  List.iter (fun (name, rel) -> check (name ^ " after growth") rel)
    [ ("r", r); ("f1", f1); ("f2", f2); ("f3", f3) ]

(* A copy costs O(columns): its allocation does not depend on the row
   count, whatever indexes, counters and zone maps the source built. *)
let test_copy_allocation_is_flat () =
  if Sys.backend_type = Sys.Native then begin
    let allocated_words () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let copy_words n =
      let r = fresh () in
      for k = 0 to n - 1 do
        ignore (Relation.insert r (tup [ i k; i (k mod 13) ]))
      done;
      ignore (pv_probe r [ (1, i 3) ]);
      ignore (Relation.distinct_count r ~col:1);
      ignore (check_prune_sound r [ (0, Relation.Blt, Intern.pack (i 10)) ]);
      let before = allocated_words () in
      let c = Relation.copy r in
      let words = allocated_words () -. before in
      ignore (Sys.opaque_identity c);
      words
    in
    let small = copy_words 10 and large = copy_words 20_000 in
    Alcotest.(check bool)
      (Printf.sprintf "copy of 20 000 rows: %.0f words, of 10 rows: %.0f (bound 96)" large small)
      true
      (large = small && large <= 96.)
  end

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
    Alcotest.test_case "subsumption below a row id" `Quick test_subsumed_below;
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
    Alcotest.test_case "a copy never sees its source's later inserts" `Quick
      test_fork_isolated_from_source_inserts;
    Alcotest.test_case "copies of copies agree with a rebuild across chunks" `Quick
      test_fork_chain_across_chunks;
    Alcotest.test_case "a copy allocates the same whatever its row count" `Quick
      test_copy_allocation_is_flat;
    QCheck_alcotest.to_alcotest prop_zone_prune_sound;
  ]
