(* The semantic query-answer cache: the LRU core, epoch invalidation,
   containment-aware hits, and the end-to-end behaviour inside the
   query engine (cached answers must be indistinguishable from
   re-running the diffusion, just cheaper). *)

open Helpers
module Lru = Codb_cache.Lru
module Epoch = Codb_cache.Epoch
module Qcache = Codb_cache.Qcache
module Containment = Codb_cq.Containment
module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Stats = Codb_core.Stats
module Node = Codb_core.Node
module Network = Codb_net.Network
module Peer_id = Codb_net.Peer_id

(* --- the LRU core -------------------------------------------------- *)

let test_lru_basic () =
  let lru = Lru.create () in
  Lru.add lru "a" 1 ~bytes:10;
  Lru.add lru "b" 2 ~bytes:10;
  Alcotest.(check (option int)) "find a" (Some 1) (Lru.find lru "a");
  Alcotest.(check (option int)) "find missing" None (Lru.find lru "z");
  Alcotest.(check int) "length" 2 (Lru.length lru);
  Alcotest.(check int) "bytes" 20 (Lru.bytes lru)

let test_lru_eviction_order () =
  let lru = Lru.create ~max_entries:2 () in
  Lru.add lru "a" 1 ~bytes:1;
  Lru.add lru "b" 2 ~bytes:1;
  (* touch a so b is the least recently used *)
  ignore (Lru.find lru "a");
  Lru.add lru "c" 3 ~bytes:1;
  Alcotest.(check bool) "a kept" true (Lru.mem lru "a");
  Alcotest.(check bool) "b evicted" false (Lru.mem lru "b");
  Alcotest.(check bool) "c kept" true (Lru.mem lru "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions lru)

let test_lru_byte_bound () =
  let lru = Lru.create ~max_bytes:100 () in
  Lru.add lru "a" 1 ~bytes:60;
  Lru.add lru "b" 2 ~bytes:60;
  Alcotest.(check bool) "a evicted by bytes" false (Lru.mem lru "a");
  Alcotest.(check bool) "b kept" true (Lru.mem lru "b");
  Alcotest.(check bool) "bytes within bound" true (Lru.bytes lru <= 100);
  (* an entry larger than the whole budget does not stick *)
  Lru.add lru "huge" 3 ~bytes:200;
  Alcotest.(check bool) "oversized entry dropped" false (Lru.mem lru "huge")

let test_lru_replace () =
  let lru = Lru.create () in
  Lru.add lru "a" 1 ~bytes:10;
  Lru.add lru "a" 2 ~bytes:30;
  Alcotest.(check (option int)) "replaced" (Some 2) (Lru.find lru "a");
  Alcotest.(check int) "bytes re-accounted" 30 (Lru.bytes lru);
  Alcotest.(check int) "one entry" 1 (Lru.length lru)

(* --- epochs -------------------------------------------------------- *)

let test_epoch_stamps () =
  let e = Epoch.create () in
  let a = Peer_id.of_string "a" and b = Peer_id.of_string "b" in
  let stamp = Epoch.stamp e [ a; b ] in
  Alcotest.(check bool) "fresh stamp current" true (Epoch.is_current e stamp);
  Epoch.bump e b;
  Alcotest.(check bool) "stale after bump" false (Epoch.is_current e stamp);
  let stamp2 = Epoch.stamp e [ a; b ] in
  Alcotest.(check bool) "restamped current" true (Epoch.is_current e stamp2);
  Epoch.bump e (Peer_id.of_string "unrelated");
  Alcotest.(check bool) "unrelated peer irrelevant" true (Epoch.is_current e stamp2)

(* --- containment with comparison predicates (conservative path) ---- *)

let test_containment_comparisons () =
  let q text = parse_query text in
  (* adding a comparison only restricts: q1 ⊆ q2 *)
  Alcotest.(check bool) "restriction contained" true
    (Containment.contained (q "ans(x) <- r(x, y), x > 2") (q "ans(x) <- r(x, y)"));
  Alcotest.(check bool) "not the other way" false
    (Containment.contained (q "ans(x) <- r(x, y)") (q "ans(x) <- r(x, y), x > 2"));
  (* syntactically identical comparisons are entailed *)
  Alcotest.(check bool) "same comparison both ways" true
    (Containment.equivalent
       (q "ans(x) <- r(x, y), x > 2")
       (q "ans(a) <- r(a, b), a > 2"));
  (* ground comparisons are evaluated *)
  Alcotest.(check bool) "true ground comparison entailed" true
    (Containment.contained (q "ans(x) <- r(x, y)") (q "ans(x) <- r(x, y), 3 > 2"));
  (* the conservative path: x > 3 semantically implies x > 2, but the
     syntactic test cannot see it — contained must answer false (sound,
     incomplete) rather than true *)
  Alcotest.(check bool) "semantic implication not detected" false
    (Containment.contained
       (q "ans(x) <- r(x, y), x > 3")
       (q "ans(x) <- r(x, y), x > 2"))

(* --- the qcache unit layer ----------------------------------------- *)

let test_normalize_alpha_variants () =
  let k1 = Qcache.normalize (parse_query "ans(x, y) <- data(x, y), x > 2") in
  let k2 = Qcache.normalize (parse_query "ans(p, q) <- data(p, q), p > 2") in
  let k3 = Qcache.normalize (parse_query "ans(y, x) <- data(x, y)") in
  Alcotest.(check string) "alpha-variants share a key" k1 k2;
  Alcotest.(check bool) "different query, different key" true (k1 <> k3)

let answers_pair () =
  packed [ tup [ i 1; i 2 ]; tup [ i 5; i 6 ] ]

let test_containment_hit_filters () =
  let cached = parse_query "ans(x, y) <- data(x, y)" in
  let narrow = parse_query "ans(x, y) <- data(x, y), x > 2" in
  match Qcache.answers_via_containment ~cached ~answers:(answers_pair ()) narrow with
  | None -> Alcotest.fail "narrow query not served"
  | Some answers -> check_tuples "filtered" [ tup [ i 5; i 6 ] ] (boxed answers)

let test_containment_hit_permutes_head () =
  let cached = parse_query "ans(x, y) <- data(x, y)" in
  let swapped = parse_query "ans(y, x) <- data(x, y)" in
  match Qcache.answers_via_containment ~cached ~answers:(answers_pair ()) swapped with
  | None -> Alcotest.fail "permuted query not served"
  | Some answers ->
      check_tuples "columns swapped" [ tup [ i 2; i 1 ]; tup [ i 6; i 5 ] ] (boxed answers)

let test_containment_hit_equivalent () =
  let cached = parse_query "ans(x, y) <- data(x, y), x > 2" in
  let variant = parse_query "ans(a, b) <- data(a, b), a > 2" in
  match Qcache.answers_via_containment ~cached ~answers:(answers_pair ()) variant with
  | None -> Alcotest.fail "alpha-variant not served"
  | Some answers -> check_tuples "answers as cached" (boxed (answers_pair ())) (boxed answers)

let test_containment_hit_refused () =
  let cached1 = parse_query "ans(x) <- data(x, y)" in
  (* y is projected away by the cached head: a filter on it cannot be
     applied over the cached answers *)
  Alcotest.(check bool) "unexposed variable refused" true
    (Qcache.answers_via_containment ~cached:cached1
       ~answers:(packed [ tup [ i 1 ] ])
       (parse_query "ans(x) <- data(x, y), y > 2")
    = None);
  (* not contained at all *)
  let cached2 = parse_query "ans(x, y) <- data(x, y), x > 2" in
  Alcotest.(check bool) "superset lookup refused" true
    (Qcache.answers_via_containment ~cached:cached2 ~answers:(answers_pair ())
       (parse_query "ans(x, y) <- data(x, y)")
    = None)

let test_qcache_exact_and_invalidation () =
  let cache = Qcache.create () in
  let self = Peer_id.of_string "self" and peer = Peer_id.of_string "peer" in
  let q = parse_query "ans(x, y) <- data(x, y)" in
  Qcache.store cache q (answers_pair ()) ~sources:[ self; peer ];
  (match Qcache.lookup cache q with
  | Some { Qcache.kind = Qcache.Exact; answers } ->
      check_tuples "exact answers" (boxed (answers_pair ())) (boxed answers)
  | Some { Qcache.kind = Qcache.By_containment; _ } -> Alcotest.fail "expected exact"
  | None -> Alcotest.fail "expected a hit");
  Alcotest.(check int) "one entry newly staled" 1 (Qcache.note_update cache [ peer ]);
  Alcotest.(check bool) "stale entry dropped" true (Qcache.lookup cache q = None);
  let c = Qcache.counters cache in
  Alcotest.(check int) "one exact hit" 1 c.Qcache.hits_exact;
  Alcotest.(check int) "one miss" 1 c.Qcache.misses;
  Alcotest.(check int) "one invalidation" 1 c.Qcache.epoch_invalidations;
  Alcotest.(check int) "empty now" 0 c.Qcache.entries

let test_qcache_containment_hit () =
  let cache = Qcache.create () in
  Qcache.store cache
    (parse_query "ans(x, y) <- data(x, y)")
    (answers_pair ())
    ~sources:[ Peer_id.of_string "self" ];
  match Qcache.lookup cache (parse_query "ans(x, y) <- data(x, y), x > 2") with
  | Some { Qcache.kind = Qcache.By_containment; answers } ->
      check_tuples "narrow served" [ tup [ i 5; i 6 ] ] (boxed answers)
  | _ -> Alcotest.fail "containment hit expected"

(* --- end to end through the query engine --------------------------- *)

let delivered sys = (Network.counters (System.net sys)).Network.delivered

let run_msgs sys q =
  let before = delivered sys in
  let outcome = System.run_query sys ~at:"n0" q in
  (outcome.System.qo_answers, delivered sys - before)

let chain ?(opts = { Options.default with Options.query_cache = true }) ?(n = 5) () =
  System.build_exn ~opts (Topology.generate ~seed:42 Topology.Chain ~n)

let broad = "ans(x, y) <- data(x, y)"

let test_warm_cache_saves_messages () =
  let sys = chain () in
  let cold_answers, cold_msgs = run_msgs sys (parse_query broad) in
  let warm_answers, warm_msgs = run_msgs sys (parse_query broad) in
  Alcotest.(check bool) "cold run talks" true (cold_msgs > 0);
  Alcotest.(check int) "warm run is silent" 0 warm_msgs;
  Alcotest.(check bool) "acceptance: >= 5x fewer messages" true
    (cold_msgs >= 5 * max 1 warm_msgs);
  check_tuples "same answers" cold_answers warm_answers

let test_exact_hit_on_alpha_variant () =
  let sys = chain () in
  let a1, _ = run_msgs sys (parse_query "ans(x, y) <- data(x, y)") in
  let a2, msgs = run_msgs sys (parse_query "ans(p, q) <- data(p, q)") in
  Alcotest.(check int) "renamed query served from cache" 0 msgs;
  check_tuples "same answers" a1 a2;
  let n0 = System.node sys "n0" in
  let snap = Option.get (Node.cache_snapshot n0) in
  Alcotest.(check int) "exact hit counted" 1 snap.Codb_cache.Qcache.hits_exact

let test_containment_hit_end_to_end () =
  let narrow = parse_query "ans(x, y) <- data(x, y), x > 100" in
  (* reference: what the narrow query answers without any cache *)
  let reference, _ = run_msgs (chain ~opts:Options.default ()) narrow in
  let sys = chain () in
  let _ = run_msgs sys (parse_query broad) in
  let answers, msgs = run_msgs sys narrow in
  Alcotest.(check int) "served without traffic" 0 msgs;
  check_tuples "identical to uncached run" reference answers;
  let snap = Option.get (Node.cache_snapshot (System.node sys "n0")) in
  Alcotest.(check int) "containment hit counted" 1 snap.Codb_cache.Qcache.hits_containment

let test_interleaved_updates_stay_correct () =
  (* the decisive correctness test: interleave queries with updates
     that change remote data; the cached system must track the
     uncached one exactly.  With stale answers (no epoch
     invalidation) the second comparison fails. *)
  let q = parse_query broad in
  let cached = chain () and plain = chain ~opts:Options.default () in
  let check_round label =
    let a_cached, _ = run_msgs cached q and a_plain, _ = run_msgs plain q in
    check_tuples label a_plain a_cached
  in
  check_round "round 1: cold";
  check_round "round 2: warm";
  let grow sys =
    (* new remote fact, then a global update to propagate it *)
    Alcotest.(check bool) "fact is new" true
      (System.insert_fact sys ~at:"n4" ~rel:"data" (tup [ i 424242; s "fresh" ]));
    ignore (System.run_update sys ~initiator:"n0")
  in
  grow cached;
  grow plain;
  check_round "round 3: after remote update";
  (* the new tuple must actually be in the cached system's answers *)
  let a_cached, _ = run_msgs cached q in
  Alcotest.(check bool) "new tuple visible through the cache" true
    (List.exists (Tuple.equal (tup [ i 424242; s "fresh" ])) a_cached)

let test_local_insert_invalidates () =
  let sys = chain () in
  let q = parse_query broad in
  let before, _ = run_msgs sys q in
  (* a purely local write, no update protocol involved *)
  Alcotest.(check bool) "inserted" true
    (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 31337; s "local" ]));
  let after, _ = run_msgs sys q in
  Alcotest.(check int) "one more answer" (List.length before + 1) (List.length after)

(* The cache's freshness contract: epoch stamps cover the asking node
   and the acquaintances it contacted, and only updates and the node's
   own writes bump them.  A write at a remote peer that no update has
   carried yet is not seen through the cache (an uncached query sees
   it); the next global update stales the entry and the answer is
   fresh again. *)
let test_remote_write_waits_for_update () =
  let q = parse_query broad in
  let cached = chain () and plain = chain ~opts:Options.default () in
  let first, _ = run_msgs cached q in
  let fact = tup [ i 424242; s "remote" ] in
  List.iter
    (fun sys ->
      Alcotest.(check bool) "fact is new" true
        (System.insert_fact sys ~at:"n4" ~rel:"data" fact))
    [ cached; plain ];
  let served, msgs = run_msgs cached q in
  Alcotest.(check int) "served from the cache" 0 msgs;
  check_tuples "remote write not seen through the cache" first served;
  let uncached, _ = run_msgs plain q in
  Alcotest.(check int) "an uncached query sees it" (List.length first + 1)
    (List.length uncached);
  List.iter (fun sys -> ignore (System.run_update sys ~initiator:"n0")) [ cached; plain ];
  let refreshed, msgs = run_msgs cached q in
  Alcotest.(check bool) "the update staled the entry" true (msgs > 0);
  Alcotest.(check bool) "remote write visible after the update" true
    (List.exists (Tuple.equal fact) refreshed);
  let reference, _ = run_msgs plain q in
  check_tuples "same answers as uncached after the update" reference refreshed

let test_rules_change_clears_cache () =
  let sys = chain () in
  let _ = run_msgs sys (parse_query broad) in
  let n0 = System.node sys "n0" in
  Alcotest.(check bool) "entry cached" true
    ((Option.get (Node.cache_snapshot n0)).Codb_cache.Qcache.entries > 0);
  System.broadcast_rules sys
    (Topology.rules_only (Topology.generate ~seed:42 Topology.Star_in ~n:5));
  Alcotest.(check int) "cache cleared on rules change" 0
    (Option.get (Node.cache_snapshot n0)).Codb_cache.Qcache.entries

let test_report_surfaces_hit_ratio () =
  let sys = chain () in
  let q = parse_query broad in
  let _ = run_msgs sys q in
  let _ = run_msgs sys q in
  let _ = run_msgs sys q in
  let rows = Report.cache_report (System.snapshots sys) in
  Alcotest.(check int) "one row per node" 5 (List.length rows);
  let n0_row =
    List.find (fun r -> Peer_id.equal r.Report.cr_node (Peer_id.of_string "n0")) rows
  in
  Alcotest.(check int) "hits" 2 n0_row.Report.cr_hits;
  Alcotest.(check int) "misses" 1 n0_row.Report.cr_misses;
  Alcotest.(check (float 1e-9)) "ratio" (2.0 /. 3.0) n0_row.Report.cr_ratio;
  Alcotest.(check bool) "bytes served" true (n0_row.Report.cr_bytes_served > 0);
  (* caching off: no rows at all *)
  let plain = chain ~opts:Options.default () in
  let _ = run_msgs plain q in
  Alcotest.(check int) "no rows without caching" 0
    (List.length (Report.cache_report (System.snapshots plain)))

let test_cache_off_by_default () =
  let sys = chain ~opts:Options.default () in
  let _, cold = run_msgs sys (parse_query broad) in
  let _, second = run_msgs sys (parse_query broad) in
  Alcotest.(check bool) "no caching by default" true (second >= cold)

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basic;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru byte bound" `Quick test_lru_byte_bound;
    Alcotest.test_case "lru replace" `Quick test_lru_replace;
    Alcotest.test_case "epoch stamps" `Quick test_epoch_stamps;
    Alcotest.test_case "containment with comparisons" `Quick
      test_containment_comparisons;
    Alcotest.test_case "normalization of alpha-variants" `Quick
      test_normalize_alpha_variants;
    Alcotest.test_case "containment hit filters" `Quick test_containment_hit_filters;
    Alcotest.test_case "containment hit permutes head" `Quick
      test_containment_hit_permutes_head;
    Alcotest.test_case "containment hit on equivalent query" `Quick
      test_containment_hit_equivalent;
    Alcotest.test_case "containment hit refused when unsound" `Quick
      test_containment_hit_refused;
    Alcotest.test_case "qcache exact hit and invalidation" `Quick
      test_qcache_exact_and_invalidation;
    Alcotest.test_case "qcache containment hit" `Quick test_qcache_containment_hit;
    Alcotest.test_case "warm cache saves messages (e2e)" `Quick
      test_warm_cache_saves_messages;
    Alcotest.test_case "exact hit on alpha-variant (e2e)" `Quick
      test_exact_hit_on_alpha_variant;
    Alcotest.test_case "containment hit (e2e)" `Quick test_containment_hit_end_to_end;
    Alcotest.test_case "interleaved queries and updates stay correct" `Quick
      test_interleaved_updates_stay_correct;
    Alcotest.test_case "local insert invalidates" `Quick test_local_insert_invalidates;
    Alcotest.test_case "remote write waits for the next update" `Quick
      test_remote_write_waits_for_update;
    Alcotest.test_case "rules change clears the cache" `Quick
      test_rules_change_clears_cache;
    Alcotest.test_case "report surfaces per-node hit ratios" `Quick
      test_report_surfaces_hit_ratio;
    Alcotest.test_case "cache off by default" `Quick test_cache_off_by_default;
  ]
