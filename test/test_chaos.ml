(* Loss-tolerant protocols under deterministic fault injection: seeded
   reproducibility, retransmission restoring the fault-free fix-point,
   duplicate suppression, bounded-partial query answers instead of
   hangs, and node crash/restart. *)

open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Node = Codb_core.Node
module Network = Codb_net.Network
module Trace = Codb_core.Trace

let chaos_opts ?(seed = 42) ?(drop = 0.0) ?(dup = 0.0) ?(jitter = 0.0)
    ?(budget = max_int) ?(flaps = []) ?(crashes = []) ?(ack = 0.05) ?(retries = 4) () =
  {
    Options.default with
    Options.fault_seed = seed;
    drop_prob = drop;
    dup_prob = dup;
    jitter;
    drop_budget = budget;
    flap_plan = flaps;
    crash_plan = crashes;
    ack_timeout = ack;
    max_retries = retries;
  }

let chain ?(seed = 5) n = Topology.generate ~seed Topology.Chain ~n

let stores_equal a b =
  List.for_all
    (fun name ->
      Database.equal_contents (System.node a name).Node.store
        (System.node b name).Node.store)
    (System.node_names a)

let chaos sys = Report.chaos_report (System.snapshots sys)

let run_update_report sys ~initiator =
  let uid = System.run_update sys ~initiator in
  Option.get (Report.update_report (System.snapshots sys) uid)

(* --- determinism ---------------------------------------------------- *)

(* Everything observable about one finished simulation.  Store
   digests hash content, never intern-slot numbers, so two runs in the
   same process compare meaningfully. *)
type observation = {
  ob_store_digests : (string * int) list;
  ob_counters : Network.counters;
  ob_snapshots : Codb_core.Stats.snapshot list;
  ob_trace : Trace.event list;
  ob_nulls : int;
  ob_events : int;
}

let observe sys ~trace ~events =
  {
    ob_store_digests = System.store_digests sys;
    ob_counters = Network.counters (System.net sys);
    ob_snapshots = System.snapshots sys;
    ob_trace = Trace.events trace;
    ob_nulls = Value.null_counter ();
    ob_events = events;
  }

let check_observation ~what expected got =
  Alcotest.(check (list (pair string int)))
    (what ^ ": store digests") expected.ob_store_digests got.ob_store_digests;
  Alcotest.(check bool) (what ^ ": network counters") true
    (expected.ob_counters = got.ob_counters);
  Alcotest.(check bool) (what ^ ": stats snapshots") true
    (expected.ob_snapshots = got.ob_snapshots);
  Alcotest.(check bool) (what ^ ": trace") true (expected.ob_trace = got.ob_trace);
  Alcotest.(check int) (what ^ ": nulls minted") expected.ob_nulls got.ob_nulls;
  Alcotest.(check int) (what ^ ": simulator events") expected.ob_events got.ob_events

(* One traced global update from n0, null generator reset first. *)
let update_run ~opts cfg =
  Value.reset_null_counter ();
  let sys = System.build_exn ~opts cfg in
  let trace = System.enable_trace sys in
  let _ = System.start_update sys ~initiator:"n0" in
  let events = System.run sys in
  observe sys ~trace ~events

let test_same_seed_same_run () =
  let opts = chaos_opts ~seed:9 ~drop:0.3 ~dup:0.1 ~jitter:0.003 ~retries:6 () in
  let run () = update_run ~opts (chain 5) in
  let a = run () in
  check_observation ~what:"second run" a (run ());
  Alcotest.(check bool) "faults were injected" true
    (a.ob_counters.Network.injected_drops > 0 && a.ob_counters.Network.injected_dups > 0)

let test_updates_identical_across_runs () =
  let params =
    { Topology.default_params with Topology.tuples_per_node = 12; existential_frac = 0.3 }
  in
  List.iter
    (fun shape ->
      let run () =
        update_run ~opts:Options.default (Topology.generate ~params ~seed:42 shape ~n:6)
      in
      let a = run () in
      check_observation ~what:"second run" a (run ()))
    [ Topology.Clique; Topology.Ring ]

let test_queries_identical_across_runs () =
  let params = { Topology.default_params with Topology.tuples_per_node = 12 } in
  let q = parse_query "o(x, y) <- data(x, y), x < 5" in
  let run () =
    Value.reset_null_counter ();
    let opts = { Options.default with Options.pushdown = true } in
    let sys =
      System.build_exn ~opts (Topology.generate ~params ~seed:77 Topology.Clique ~n:5)
    in
    let trace = System.enable_trace sys in
    let outcome = System.run_query sys ~at:"n0" q in
    (outcome.System.qo_answers, outcome.System.qo_complete, observe sys ~trace ~events:0)
  in
  let answers1, complete1, obs1 = run () in
  let answers2, complete2, obs2 = run () in
  Alcotest.(check int) "answer digest" (Tuple.digest answers1) (Tuple.digest answers2);
  Alcotest.(check bool) "complete flag" complete1 complete2;
  check_observation ~what:"second query run" obs1 obs2

let test_subscriptions_identical_across_runs () =
  let params = { Topology.default_params with Topology.tuples_per_node = 8 } in
  let run () =
    Value.reset_null_counter ();
    let opts = { Options.default with Options.subscriptions = true } in
    let sys =
      System.build_exn ~opts (Topology.generate ~params ~seed:9 Topology.Clique ~n:4)
    in
    let trace = System.enable_trace sys in
    let sub_id =
      match
        System.subscribe_remote sys ~subscriber:"n1" ~host:"n0"
          (parse_query "o(x, y) <- data(x, y)")
      with
      | Ok id -> id
      | Error e -> Alcotest.failf "subscribe: %s" e
    in
    let _ = System.run sys in
    let _ = System.run_update sys ~initiator:"n0" in
    let answers = Option.value ~default:[] (System.subscription_answers sys ~at:"n1" sub_id) in
    (Tuple.digest answers, observe sys ~trace ~events:0)
  in
  let digest1, obs1 = run () in
  let digest2, obs2 = run () in
  Alcotest.(check int) "mirror digest" digest1 digest2;
  check_observation ~what:"second subscription run" obs1 obs2

let gen_case =
  let open QCheck2.Gen in
  let* shape =
    oneofl [ Topology.Chain; Topology.Ring; Topology.Clique; Topology.Binary_tree ]
  in
  let* n = int_range 2 5 in
  let* seed = int_range 0 10000 in
  let* existential_frac = oneofl [ 0.0; 0.3 ] in
  let* chaos = bool in
  let* fault_seed = int_range 0 10000 in
  let params =
    { Topology.default_params with Topology.tuples_per_node = 8; existential_frac }
  in
  return (shape, n, seed, params, chaos, fault_seed)

let prop_runs_identical =
  QCheck2.Test.make ~name:"seeded simulations are bit-identical across runs" ~count:15
    gen_case
    (fun (shape, n, seed, params, chaos, fault_seed) ->
      let opts =
        if chaos then
          chaos_opts ~seed:fault_seed ~drop:0.15 ~dup:0.1 ~jitter:0.002 ~budget:8
            ~retries:10 ()
        else Options.default
      in
      let cfg = Topology.generate ~params ~seed shape ~n in
      update_run ~opts cfg = update_run ~opts cfg)

(* --- retransmission ------------------------------------------------- *)

let test_retries_restore_fixpoint () =
  let baseline = System.build_exn (chain 6) in
  let _ = System.run_update baseline ~initiator:"n0" in
  let opts = chaos_opts ~seed:3 ~drop:0.25 ~dup:0.05 ~jitter:0.002 ~retries:8 () in
  let sys = System.build_exn ~opts (chain 6) in
  let report = run_update_report sys ~initiator:"n0" in
  Alcotest.(check bool) "all nodes finished" true report.Report.ur_all_finished;
  Alcotest.(check bool) "fix-point equals the fault-free run" true
    (stores_equal baseline sys);
  let ch = chaos sys in
  Alcotest.(check bool) "loss actually happened" true
    ((Network.counters (System.net sys)).Network.injected_drops > 0);
  Alcotest.(check bool) "retransmissions happened" true (ch.Report.chr_retransmits > 0);
  Alcotest.(check int) "nothing was abandoned" 0 ch.Report.chr_give_ups

let test_dup_suppression_keeps_stores_correct () =
  let baseline = System.build_exn (chain 4) in
  let _ = System.run_update baseline ~initiator:"n0" in
  let opts = chaos_opts ~seed:1 ~dup:0.8 ~retries:2 () in
  let sys = System.build_exn ~opts (chain 4) in
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check bool) "stores unharmed by duplicates" true (stores_equal baseline sys);
  Alcotest.(check bool) "duplicates were suppressed" true
    ((chaos sys).Report.chr_dup_suppressed > 0)

let test_no_retries_under_loss_terminates () =
  (* everything dropped, no retransmission: the update must still come
     back (give-ups compensate the engagement deficits) instead of
     spinning the simulator forever *)
  let opts = chaos_opts ~seed:2 ~drop:1.0 ~retries:0 () in
  let sys = System.build_exn ~opts (chain 4) in
  let report = run_update_report sys ~initiator:"n0" in
  Alcotest.(check bool) "initiator finished" true (report.Report.ur_duration >= 0.0);
  let ch = chaos sys in
  Alcotest.(check bool) "give-ups recorded" true (ch.Report.chr_give_ups > 0);
  (* nothing was delivered, so the fix-point is the local store only *)
  Alcotest.(check int) "no deliveries" 0
    (Network.counters (System.net sys)).Network.delivered

(* --- partial answers ------------------------------------------------ *)

let q_data = "ans(k, v) <- data(k, v)"

let test_query_partial_answer_under_total_loss () =
  let opts = chaos_opts ~seed:4 ~drop:1.0 ~retries:0 () in
  let sys = System.build_exn ~opts (chain 3) in
  let outcome = System.run_query sys ~at:"n0" (parse_query q_data) in
  Alcotest.(check bool) "incomplete" false outcome.System.qo_complete;
  Alcotest.(check bool) "local answers still served" true
    (List.length outcome.System.qo_answers > 0);
  let ch = chaos sys in
  Alcotest.(check bool) "sub-request timeouts recorded" true
    (ch.Report.chr_query_timeouts > 0);
  Alcotest.(check bool) "partial answer recorded" true
    (ch.Report.chr_partial_answers > 0)

let test_query_complete_under_loss_with_retries () =
  let baseline = System.build_exn (chain 4) in
  let expected = (System.run_query baseline ~at:"n0" (parse_query q_data)).System.qo_answers in
  let opts = chaos_opts ~seed:6 ~drop:0.2 ~dup:0.05 ~jitter:0.002 ~retries:8 () in
  let sys = System.build_exn ~opts (chain 4) in
  let outcome = System.run_query sys ~at:"n0" (parse_query q_data) in
  Alcotest.(check bool) "complete" true outcome.System.qo_complete;
  check_tuples "same answers as the fault-free run" expected outcome.System.qo_answers

(* --- crash / restart ------------------------------------------------ *)

let test_crash_without_restart_terminates () =
  let opts = chaos_opts ~seed:8 ~crashes:[ ("n2", 0.0005, None) ] ~retries:2 () in
  let sys = System.build_exn ~opts (chain 4) in
  let report = run_update_report sys ~initiator:"n0" in
  (* the dead child never answers: the update must end anyway, either
     through transport give-ups or the stall watchdog *)
  Alcotest.(check bool) "update came back" true (report.Report.ur_duration >= 0.0);
  Alcotest.(check int) "crash counted" 1
    (Network.counters (System.net sys)).Network.crashes;
  let outcome = System.run_query sys ~at:"n0" (parse_query q_data) in
  Alcotest.(check bool) "later queries flag the dead subtree" false
    outcome.System.qo_complete

let test_crash_restart_recovers () =
  let opts = chaos_opts ~seed:8 ~crashes:[ ("n1", 0.0005, Some 0.2) ] ~retries:6 () in
  let sys = System.build_exn ~opts (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check int) "restart counted" 1
    (Network.counters (System.net sys)).Network.restarts;
  (* the default crash is honest: the restarted node lost its store
     and refetched what its rules import *)
  Alcotest.(check bool) "restart refetched bytes" true
    ((Report.chaos_report (System.snapshots sys)).Report.chr_refetched_bytes > 0);
  (* after the restart the node is reachable again: a second update
     completes the fix-point as if nothing had happened *)
  let baseline = System.build_exn (chain 3) in
  let _ = System.run_update baseline ~initiator:"n0" in
  let report = run_update_report sys ~initiator:"n0" in
  Alcotest.(check bool) "second update finished everywhere" true
    report.Report.ur_all_finished;
  Alcotest.(check bool) "fix-point recovered" true (stores_equal baseline sys)

(* --- link flaps ----------------------------------------------------- *)

let test_flap_mid_update_recovers_with_retries () =
  let baseline = System.build_exn (chain 3) in
  let _ = System.run_update baseline ~initiator:"n0" in
  let opts =
    chaos_opts ~seed:10 ~flaps:[ ("n0", "n1", 0.001, 0.3) ] ~retries:8 ()
  in
  let sys = System.build_exn ~opts (chain 3) in
  let report = run_update_report sys ~initiator:"n0" in
  Alcotest.(check bool) "finished despite the flap" true report.Report.ur_all_finished;
  Alcotest.(check bool) "fix-point intact" true (stores_equal baseline sys);
  Alcotest.(check int) "flap executed" 1
    (Network.counters (System.net sys)).Network.injected_flaps

let suite =
  [
    Alcotest.test_case "same seed, same run" `Quick test_same_seed_same_run;
    Alcotest.test_case "updates are bit-identical across runs" `Quick
      test_updates_identical_across_runs;
    Alcotest.test_case "queries are bit-identical across runs" `Quick
      test_queries_identical_across_runs;
    Alcotest.test_case "subscriptions are bit-identical across runs" `Quick
      test_subscriptions_identical_across_runs;
    QCheck_alcotest.to_alcotest prop_runs_identical;
    Alcotest.test_case "retries restore the fix-point" `Quick
      test_retries_restore_fixpoint;
    Alcotest.test_case "duplicate suppression" `Quick
      test_dup_suppression_keeps_stores_correct;
    Alcotest.test_case "no retries under loss still terminates" `Quick
      test_no_retries_under_loss_terminates;
    Alcotest.test_case "partial answer under total loss" `Quick
      test_query_partial_answer_under_total_loss;
    Alcotest.test_case "query complete under loss with retries" `Quick
      test_query_complete_under_loss_with_retries;
    Alcotest.test_case "crash without restart terminates" `Quick
      test_crash_without_restart_terminates;
    Alcotest.test_case "crash and restart recovers" `Quick test_crash_restart_recovers;
    Alcotest.test_case "flap mid-update recovers" `Quick
      test_flap_mid_update_recovers_with_retries;
  ]
