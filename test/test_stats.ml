module Stats = Codb_core.Stats
module Ids = Codb_core.Ids
module Report = Codb_core.Report
module Peer_id = Codb_net.Peer_id

let uid serial = Ids.update_id (Peer_id.of_string "n") serial

let test_update_stat_created_once () =
  let st = Stats.create (Peer_id.of_string "n") in
  let us1 = Stats.update_stat st ~now:1.0 (uid 1) in
  us1.Stats.us_data_msgs <- 5;
  let us2 = Stats.update_stat st ~now:9.0 (uid 1) in
  Alcotest.(check int) "same accumulator" 5 us2.Stats.us_data_msgs;
  Alcotest.(check (float 0.0)) "original start time" 1.0 us2.Stats.us_started;
  Alcotest.(check bool) "find" true (Stats.find_update st (uid 1) <> None);
  Alcotest.(check bool) "missing" true (Stats.find_update st (uid 2) = None)

let test_rule_traffic_accumulates () =
  let st = Stats.create (Peer_id.of_string "n") in
  let us = Stats.update_stat st ~now:0.0 (uid 1) in
  let t1 = Stats.rule_traffic us "r1" in
  t1.Stats.rt_msgs <- 3;
  let t1' = Stats.rule_traffic us "r1" in
  Alcotest.(check int) "shared" 3 t1'.Stats.rt_msgs

let test_note_unique () =
  let st = Stats.create (Peer_id.of_string "n") in
  let us = Stats.update_stat st ~now:0.0 (uid 1) in
  let p = Peer_id.of_string "other" in
  Stats.note_queried us p;
  Stats.note_queried us p;
  Stats.note_sent_to us p;
  Alcotest.(check int) "queried once" 1 (List.length us.Stats.us_queried);
  Alcotest.(check int) "sent once" 1 (List.length us.Stats.us_sent_to)

let test_snapshot_reflects_state () =
  let st = Stats.create (Peer_id.of_string "n") in
  let us = Stats.update_stat st ~now:2.0 (uid 7) in
  us.Stats.us_finished <- Some 4.5;
  us.Stats.us_data_msgs <- 11;
  (Stats.rule_traffic us "r9").Stats.rt_bytes <- 123;
  let qs = Stats.query_stat st ~now:3.0 (Ids.query_id (Peer_id.of_string "n") 1) in
  qs.Stats.qs_answers <- 4;
  Stats.set_inconsistent st true;
  let snap = Stats.snapshot ~store_tuples:42 st in
  Alcotest.(check bool) "inconsistent" true snap.Stats.snap_inconsistent;
  Alcotest.(check int) "store tuples" 42 snap.Stats.snap_store_tuples;
  (match snap.Stats.snap_updates with
  | [ u ] ->
      Alcotest.(check int) "msgs" 11 u.Stats.us_data_msgs;
      Alcotest.(check bool) "finished" true (u.Stats.us_finished = Some 4.5);
      Alcotest.(check int) "one rule" 1 (Hashtbl.length u.Stats.us_per_rule);
      Alcotest.(check int) "rule bytes" 123
        (Hashtbl.find u.Stats.us_per_rule "r9").Stats.rt_bytes
  | _ -> Alcotest.fail "one update expected");
  match snap.Stats.snap_queries with
  | [ q ] -> Alcotest.(check int) "answers" 4 q.Stats.qs_answers
  | _ -> Alcotest.fail "one query expected"

let test_report_merges_rules_across_nodes () =
  let mk name bytes =
    let st = Stats.create (Peer_id.of_string name) in
    let us = Stats.update_stat st ~now:0.0 (uid 1) in
    us.Stats.us_finished <- Some 1.0;
    (Stats.rule_traffic us "shared").Stats.rt_bytes <- bytes;
    Stats.snapshot st
  in
  let snaps = [ mk "a" 10; mk "b" 32 ] in
  (* summing must not write into the snapshots: a second report over
     the same snapshots sees the same numbers *)
  ignore (Report.update_report snaps (uid 1));
  let report = Option.get (Report.update_report snaps (uid 1)) in
  Alcotest.(check int) "two nodes" 2 report.Report.ur_nodes;
  match report.Report.ur_per_rule with
  | [ ("shared", rt) ] -> Alcotest.(check int) "bytes summed" 42 rt.Stats.rt_bytes
  | _ -> Alcotest.fail "one merged rule expected"

let test_report_unfinished_flag () =
  let st = Stats.create (Peer_id.of_string "a") in
  let us = Stats.update_stat st ~now:0.5 (uid 1) in
  us.Stats.us_finished <- None;
  let report = Option.get (Report.update_report [ Stats.snapshot st ] (uid 1)) in
  Alcotest.(check bool) "flagged unfinished" false report.Report.ur_all_finished

let test_latest_update_report_picks_newest () =
  let st = Stats.create (Peer_id.of_string "a") in
  let u1 = Stats.update_stat st ~now:1.0 (uid 1) in
  u1.Stats.us_finished <- Some 2.0;
  let u2 = Stats.update_stat st ~now:5.0 (uid 2) in
  u2.Stats.us_finished <- Some 6.0;
  let report = Option.get (Report.latest_update_report [ Stats.snapshot st ]) in
  Alcotest.(check bool) "newest chosen" true
    (Ids.equal_update report.Report.ur_update (uid 2))

let test_snapshot_sorted_by_start () =
  let st = Stats.create (Peer_id.of_string "a") in
  ignore (Stats.update_stat st ~now:5.0 (uid 2));
  ignore (Stats.update_stat st ~now:1.0 (uid 1));
  let snap = Stats.snapshot st in
  match snap.Stats.snap_updates with
  | [ first; second ] ->
      Alcotest.(check bool) "chronological" true
        (first.Stats.us_started <= second.Stats.us_started)
  | _ -> Alcotest.fail "two updates expected"

(* Updates and queries that start at the same simulated time are
   listed by id, whatever order the node's tables hold them in: the
   printed report is the same for both insertion orders. *)
let test_snapshot_ties_break_by_id () =
  let ids = [ ("b", 1); ("a", 10); ("a", 2) ] in
  let snapshot order =
    let st = Stats.create (Peer_id.of_string "n") in
    ignore (Stats.update_stat st ~now:0.5 (Ids.update_id (Peer_id.of_string "z") 9));
    List.iter
      (fun (origin, serial) ->
        let origin = Peer_id.of_string origin in
        ignore (Stats.update_stat st ~now:1.0 (Ids.update_id origin serial));
        ignore (Stats.query_stat st ~now:1.0 (Ids.query_id origin serial)))
      order;
    Stats.snapshot st
  in
  let forward = snapshot ids and backward = snapshot (List.rev ids) in
  Alcotest.(check (list string)) "updates: start time, then id"
    [ "upd:z#9"; "upd:a#2"; "upd:a#10"; "upd:b#1" ]
    (List.map (fun u -> Ids.string_of_update u.Stats.us_update) forward.Stats.snap_updates);
  Alcotest.(check (list string)) "queries by id" [ "qry:a#2"; "qry:a#10"; "qry:b#1" ]
    (List.map (fun q -> Ids.string_of_query q.Stats.qs_query) forward.Stats.snap_queries);
  Alcotest.(check string) "same report either way"
    (Fmt.str "%a" Stats.pp_snapshot forward)
    (Fmt.str "%a" Stats.pp_snapshot backward)

(* Ids key durability snapshots and name updates in every report: the
   text is pinned. *)
let test_id_text () =
  let n0 = Peer_id.of_string "n0" and n4 = Peer_id.of_string "n4" in
  Alcotest.(check string) "update" "upd:n0#3" (Ids.string_of_update (Ids.update_id n0 3));
  Alcotest.(check string) "query" "qry:n4#17" (Ids.string_of_query (Ids.query_id n4 17));
  Alcotest.(check string) "printer agrees" "upd:n0#3"
    (Fmt.str "%a" Ids.pp_update (Ids.update_id n0 3));
  Alcotest.(check string) "query printer agrees" "qry:n4#17"
    (Fmt.str "%a" Ids.pp_query (Ids.query_id n4 17))

(* A node with a distinct value in every counter, so each printer
   below is pinned field by field: a swapped or dropped field changes
   the text.  A second, quiet node pins the sections that print only
   when their counters moved. *)
let golden_snapshots () =
  let st = Stats.create (Peer_id.of_string "n0") in
  let us = Stats.update_stat st ~now:0.25 (uid 3) in
  us.Stats.us_finished <- Some 1.5;
  us.Stats.us_data_msgs <- 101;
  us.Stats.us_control_msgs <- 102;
  us.Stats.us_bytes_in <- 103;
  us.Stats.us_new_tuples <- 104;
  us.Stats.us_dup_suppressed <- 105;
  us.Stats.us_nulls_created <- 106;
  us.Stats.us_max_hops <- 107;
  us.Stats.us_eval.probes <- 108;
  us.Stats.us_eval.scans <- 109;
  us.Stats.us_eval.zone_visited <- 110;
  us.Stats.us_eval.zone_pruned <- 111;
  us.Stats.us_cache_staled <- 116;
  us.Stats.us_forced <- true;
  let rt_b = Stats.rule_traffic us "r_b" in
  rt_b.Stats.rt_msgs <- 117;
  rt_b.Stats.rt_bytes <- 118;
  rt_b.Stats.rt_tuples <- 119;
  let rt_a = Stats.rule_traffic us "r_a" in
  rt_a.Stats.rt_msgs <- 120;
  rt_a.Stats.rt_bytes <- 121;
  rt_a.Stats.rt_tuples <- 122;
  Stats.note_queried us (Peer_id.of_string "n1");
  Stats.note_queried us (Peer_id.of_string "n2");
  Stats.note_sent_to us (Peer_id.of_string "n3");
  let qid = Ids.query_id (Peer_id.of_string "n0") 4 in
  let qs = Stats.query_stat st ~now:0.5 qid in
  qs.Stats.qs_finished <- Some 0.75;
  qs.Stats.qs_data_msgs <- 201;
  qs.Stats.qs_bytes_in <- 202;
  qs.Stats.qs_answers <- 203;
  qs.Stats.qs_certain <- 204;
  qs.Stats.qs_cache <- Stats.Cache_hit_containment;
  qs.Stats.qs_eval.probes <- 205;
  qs.Stats.qs_eval.scans <- 206;
  qs.Stats.qs_eval.zone_visited <- 207;
  qs.Stats.qs_eval.zone_pruned <- 208;
  qs.Stats.qs_complete <- false;
  qs.Stats.qs_pushed <- 209;
  qs.Stats.qs_filtered_at_source <- 210;
  qs.Stats.qs_pushdown_hits <- 211;
  let ch = Stats.chaos st in
  ch.Stats.ch_retransmits <- 301;
  ch.Stats.ch_dup_suppressed <- 302;
  ch.Stats.ch_give_ups <- 303;
  ch.Stats.ch_query_timeouts <- 304;
  ch.Stats.ch_partial_answers <- 305;
  ch.Stats.ch_forced_terminations <- 306;
  ch.Stats.ch_send_drops <- 307;
  ch.Stats.ch_recovered_records <- 308;
  ch.Stats.ch_replayed_bytes <- 309;
  ch.Stats.ch_refetched_bytes <- 310;
  let sb = Stats.sub st in
  sb.Stats.sb_registered <- 401;
  sb.Stats.sb_rejected <- 402;
  sb.Stats.sb_unregistered <- 403;
  sb.Stats.sb_deltas_in <- 404;
  sb.Stats.sb_prefiltered <- 405;
  sb.Stats.sb_deltas_out <- 406;
  sb.Stats.sb_push_msgs <- 407;
  sb.Stats.sb_adds <- 408;
  sb.Stats.sb_retracts <- 409;
  sb.Stats.sb_bytes <- 410;
  sb.Stats.sb_eval.probes <- 412;
  sb.Stats.sb_eval.scans <- 413;
  sb.Stats.sb_eval.zone_visited <- 414;
  sb.Stats.sb_eval.zone_pruned <- 415;
  sb.Stats.sb_cache_staled <- 416;
  sb.Stats.sb_torn_down <- 417;
  sb.Stats.sb_rearmed <- 418;
  Stats.set_inconsistent st true;
  let cache =
    {
      Codb_cache.Qcache.hits_exact = 501;
      hits_containment = 502;
      misses = 503;
      stores = 504;
      epoch_invalidations = 505;
      evictions = 507;
      bytes_served = 508;
      entries = 509;
      stored_bytes = 510;
      epoch_bumps = 511;
      rule_hits_exact = 512;
      rule_hits_containment = 513;
      rule_misses = 514;
      rule_stores = 515;
      rule_entries = 516;
    }
  in
  let quiet = Stats.create (Peer_id.of_string "n1") in
  let qu = Stats.update_stat quiet ~now:0.375 (uid 3) in
  qu.Stats.us_data_msgs <- 601;
  (Stats.rule_traffic qu "r_a").Stats.rt_msgs <- 602;
  ( qid,
    [ Stats.snapshot ~store_tuples:99 ~cache st; Stats.snapshot ~store_tuples:7 quiet ] )

(* A snapshot is a deep copy: writes to the live accumulators after it
   was taken, the per-rule table and the evaluator record included,
   must not show through. *)
let test_snapshot_is_a_copy () =
  let st = Stats.create (Peer_id.of_string "n0") in
  let us = Stats.update_stat st ~now:0.0 (uid 1) in
  (Stats.rule_traffic us "r").Stats.rt_msgs <- 1;
  let snap = Stats.snapshot st in
  let frozen = Fmt.str "%a" Stats.pp_snapshot snap in
  us.Stats.us_data_msgs <- 9;
  us.Stats.us_eval.probes <- 9;
  (Stats.rule_traffic us "r").Stats.rt_msgs <- 9;
  (Stats.rule_traffic us "r2").Stats.rt_bytes <- 9;
  (Stats.sub st).Stats.sb_adds <- 9;
  (Stats.sub st).Stats.sb_eval.scans <- 9;
  (Stats.chaos st).Stats.ch_retransmits <- 9;
  ignore (Stats.update_stat st ~now:1.0 (uid 2));
  Alcotest.(check string) "snapshot unchanged" frozen (Fmt.str "%a" Stats.pp_snapshot snap)

let test_printers_pinned () =
  let qid, snaps = golden_snapshots () in
  let check name expected pp v = Alcotest.(check string) name expected (Fmt.str "%a" pp v) in
  check "pp_network" {|node n0 (INCONSISTENT, 99 tuples)
  upd:n#3 (FORCED TERMINATION): started 0.2500s, finished 1.5000s, data msgs 101, control msgs 102, bytes in 103, new tuples 104, dups suppressed 105, nulls 106, longest path 107, index probes 108, scans 109, zone chunks 110 visited (111 pruned), cache staled 116
    queried: n2, n1
    results sent to: n3
    rule r_a: 120 msgs, 121 B, 122 tuples
    rule r_b: 117 msgs, 118 B, 119 tuples
  qry:n0#4: 203 answers (204 certain) INCOMPLETE, 201 data msgs, 202 B in, 205 probes, 206 scans, zone chunks 207 visited (208 pruned), cache hit (containment), pushdown: 209 constrained sub-requests, 210 filtered at source, 211 rule-cache hits
  cache: 501 exact + 502 containment hits, 503 misses, 504 stores, 505 invalidated, 507 evicted, 508 B served, 509 entries (510 B)
  transport: 301 retransmits, 302 dups suppressed, 303 give-ups, 304 sub-request timeouts, 305 partial answers, 306 forced terminations, 307 send drops, 308 recovered records, 309 replayed bytes, 310 refetched bytes
  subs: 401 registered (402 refused, 403 dropped), 404 deltas in (405 prefiltered), 406 deltas out in 407 msgs (+408 -409, 410 B), 412 probes, 413 scans, zone chunks 414 visited (415 pruned), 416 cache staled, 417 torn down, 418 re-armed
node n1 (consistent, 7 tuples)
  upd:n#3: started 0.3750s, finished unfinished, data msgs 601, control msgs 0, bytes in 0, new tuples 0, dups suppressed 0, nulls 0, longest path 0, index probes 0, scans 0, cache staled 0
    queried: none
    results sent to: none
    rule r_a: 602 msgs, 0 B, 0 tuples|}
    Report.pp_network snaps;
  check "pp_update_report" {|global update upd:n#3:
  nodes: 2 (some unfinished)
  duration: 1.2500s (0.2500 -> 1.5000)
  data messages: 702, control messages: 102
  data volume: 103 B
  new tuples: 104, duplicates suppressed: 105, nulls created: 106
  longest propagation path: 107
  index probes: 108, relation scans: 109, zone chunks visited: 110, pruned: 111
  rule r_a           722 msgs      121 B    122 tuples
  rule r_b           117 msgs      118 B    119 tuples|}
    Report.pp_update_report
    (Option.get (Report.update_report snaps (uid 3)));
  check "pp_wire_report" {|wire behaviour of upd:n#3:
  data messages: 702
  data volume: 103 B
  query-cache entries staled: 116|}
    Report.pp_wire_report
    (Option.get (Report.update_report snaps (uid 3)));
  check "pp_cache_report" {|query cache:
  node n0           1003 hits  503 misses  ratio 0.67       508 B served   505 invalidated   509 entries|}
    Report.pp_cache_report (Report.cache_report snaps);
  check "pp_pushdown_report" {|constraint pushdown for qry:n0#4:
  constrained sub-requests: 209
  tuples filtered at source: 210
  rule-cache hits: 211
  answer traffic: 201 messages, 202 B|}
    Report.pp_pushdown_report
    (Option.get (Report.pushdown_report snaps qid));
  check "pp_sub_report" {|standing queries:
  registered: 401 (402 refused), torn down by crashes: 417, re-armed: 418
  store deltas consumed: 404 (405 tuples prefiltered at source)
  answer deltas delivered: 406 (408 adds, 409 retracts)
  push traffic: 407 messages, 410 B (0.5 B/answer)
  evaluator work: 412 probes, 413 scans, zone chunks 414 visited (415 pruned)
  cache entries staled by pushes: 416|}
    Report.pp_sub_report (Report.sub_report snaps);
  check "pp_chaos_report" {|fault tolerance:
  retransmits: 301, duplicates suppressed: 302, give-ups: 303
  sub-request timeouts: 304, partial answers: 305
  forced terminations: 306 (1 update records marked forced)
  incomplete query records: 1
  send drops surfaced: 307
  recovery: 308 records replayed (309 bytes), 310 bytes refetched|}
    Report.pp_chaos_report (Report.chaos_report snaps)

let suite =
  [
    Alcotest.test_case "update accumulator identity" `Quick test_update_stat_created_once;
    Alcotest.test_case "rule traffic accumulates" `Quick test_rule_traffic_accumulates;
    Alcotest.test_case "queried/sent-to dedup" `Quick test_note_unique;
    Alcotest.test_case "snapshot content" `Quick test_snapshot_reflects_state;
    Alcotest.test_case "report merges per-rule traffic" `Quick
      test_report_merges_rules_across_nodes;
    Alcotest.test_case "unfinished updates flagged" `Quick test_report_unfinished_flag;
    Alcotest.test_case "latest report picks the newest" `Quick
      test_latest_update_report_picks_newest;
    Alcotest.test_case "snapshots sorted by start" `Quick test_snapshot_sorted_by_start;
    Alcotest.test_case "start-time ties break by id" `Quick test_snapshot_ties_break_by_id;
    Alcotest.test_case "id text pinned" `Quick test_id_text;
    Alcotest.test_case "every report printer pinned" `Quick test_printers_pinned;
    Alcotest.test_case "a snapshot is a copy" `Quick test_snapshot_is_a_copy;
  ]
