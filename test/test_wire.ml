(* Wire-layer behaviour of the global update: batching must commit the
   same stores as the plain run on random networks, and must actually
   reduce traffic on a fan-in workload. *)

module Q2 = QCheck2
module Gen = QCheck2.Gen
module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Node = Codb_core.Node
module Trace = Codb_core.Trace
module Network = Codb_net.Network
module Datagen = Codb_workload.Datagen

(* a window long enough to span several delta waves *)
let batched = { Options.default with Options.batch_window = 0.02 }

let gen_network =
  let open Gen in
  let* shape =
    oneofl
      [ Topology.Chain; Topology.Ring; Topology.Star_in; Topology.Star_out;
        Topology.Binary_tree; Topology.Clique ]
  in
  let* n = int_range 2 5 in
  let* seed = int_range 0 10000 in
  let* skew = oneofl [ 0.0; 1.0 ] in
  (* the large case ships more than [Update.batch_max_tuples] distinct
     tuples to one importer on first contact, so size-cap flushes mix
     with window flushes; its wide domain is drawn uniformly, since a
     skewed draw over it is slow to generate *)
  let* tuples_per_node, profile =
    oneofl
      [
        (8, { Datagen.domain_size = 12; skew });
        (300, { Datagen.domain_size = 100_000; skew = 0.0 });
      ]
  in
  (* existential heads mint per-run null ids, which by construction
     differ between runs with different event orders; the equivalence
     below is about tuples actually exchanged, so keep heads plain *)
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node;
      profile;
    }
  in
  return (shape, n, seed, params)

let run_corner (shape, n, seed, params) opts =
  let sys = System.build_exn ~opts (Topology.generate ~params ~seed shape ~n) in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  (sys, report)

let stores_equal sys_a sys_b =
  List.for_all
    (fun name ->
      Codb_relalg.Database.equal_contents (System.node sys_a name).Node.store
        (System.node sys_b name).Node.store)
    (System.node_names sys_a)

let prop_batching_commits_identical_stores =
  Q2.Test.make ~name:"batching reaches the plain fix-point" ~count:30 gen_network
    (fun spec ->
      let baseline, base_report = run_corner spec Options.default in
      let sys, report = run_corner spec batched in
      base_report.Report.ur_all_finished && report.Report.ur_all_finished
      && stores_equal baseline sys)

let prop_batching_never_ships_more_tuples =
  (* a window merges what each destination receives, and every link
     ships a head at most once either way: the same fix-point, reached
     by no more shipped tuples.  (It can add messages: the default
     already sends the parent's rows in the message that carries the
     close or the ack, and the window ships them ahead of it.) *)
  Q2.Test.make ~name:"batching never ships more tuples" ~count:30 gen_network (fun spec ->
      let shipped r =
        List.fold_left (fun acc (_, t) -> acc + t.Codb_core.Stats.rt_tuples) 0 r.Report.ur_per_rule
      in
      let _, plain = run_corner spec Options.default in
      let _, batched =
        run_corner spec { Options.default with Options.batch_window = 0.02 }
      in
      shipped batched <= shipped plain
      && batched.Report.ur_new_tuples = plain.Report.ur_new_tuples)

(* deterministic fan-in workload: every node hears the same closure
   from several neighbours in a short interval *)
let clique_spec =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = 20;
      profile = { Datagen.domain_size = 15; skew = 1.0 };
    }
  in
  (Topology.Clique, 5, 42, params)

(* What the window still buys over the default, whose parent-bound
   rows already ride in one message per engagement: it coalesces the
   eager rows to the other importers.  On this clique it cuts data
   messages 72 -> 40 (1.8x; 100 -> 40 against the eager default this
   bound was set on, when it asked for 2x), every update message
   184 -> 120 and wire bytes 20 120 -> 15 700 B. *)
let test_batching_reduces_traffic () =
  let messages_and_bytes opts =
    let sys, report = run_corner clique_spec opts in
    let c = Network.counters (System.net sys) in
    (report.Report.ur_data_msgs, c.Network.delivered, c.Network.total_bytes, sys)
  in
  let plain_msgs, plain_all, plain_bytes, plain_sys =
    messages_and_bytes { Options.default with Options.batch_window = 0.0 }
  in
  let batched_msgs, batched_all, batched_bytes, batched_sys =
    messages_and_bytes
      { Options.default with Options.batch_window = 10.0 *. Options.default.Options.latency }
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer data messages (%d -> %d)" plain_msgs batched_msgs)
    true
    (batched_msgs * 3 <= plain_msgs * 2);
  Alcotest.(check bool)
    (Printf.sprintf "fewer messages (%d -> %d)" plain_all batched_all)
    true (batched_all < plain_all);
  Alcotest.(check bool)
    (Printf.sprintf "fewer wire bytes (%d -> %d)" plain_bytes batched_bytes)
    true
    (batched_bytes < plain_bytes);
  Alcotest.(check bool) "same stores" true (stores_equal plain_sys batched_sys)

let test_batch_counters_flow_to_report () =
  let _, report =
    run_corner clique_spec
      { Options.default with Options.batch_window = 10.0 *. Options.default.Options.latency }
  in
  Alcotest.(check bool) "batches counted" true (report.Report.ur_batches > 0);
  Alcotest.(check bool) "batch tuples counted" true
    (report.Report.ur_batch_tuples >= report.Report.ur_batches);
  Alcotest.(check bool) "avg batch size positive" true (Report.avg_batch report > 0.0)

let test_max_tuples_flushes_early () =
  (* first contact sends every node's 300 distinct tuples to each
     importer, more than [Update.batch_max_tuples]; under a window far
     longer than the whole run only the size cap can ship them early,
     and the update must still terminate *)
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = 300;
      profile = { Datagen.domain_size = 100_000; skew = 0.0 };
    }
  in
  let spec = (Topology.Clique, 3, 42, params) in
  let window = 1000.0 in
  let sys =
    System.build_exn
      ~opts:{ Options.default with Options.batch_window = window }
      (Topology.generate ~params ~seed:42 Topology.Clique ~n:3)
  in
  let trace = System.enable_trace ~capacity:100_000 sys in
  let uid = System.run_update sys ~initiator:"n0" in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Alcotest.(check bool) "terminates through size-cap flushes" true
    report.Report.ur_all_finished;
  let early_batch (ev : Trace.event) =
    ev.Trace.ev_direction = Trace.Sent
    && ev.Trace.ev_at < window
    && Scanf.sscanf_opt ev.Trace.ev_what "update-batch (%d rules, %d tuples)"
         (fun _ tuples -> tuples >= Codb_core.Update.batch_max_tuples)
       = Some true
  in
  Alcotest.(check bool) "a full batch left before the window" true
    (List.exists early_batch (Trace.events trace));
  let plain_sys, _ = run_corner spec Options.default in
  Alcotest.(check bool) "same stores" true (stores_equal plain_sys sys)

let suite =
  [
    Alcotest.test_case "batching reduces clique traffic" `Quick
      test_batching_reduces_traffic;
    Alcotest.test_case "batch counters reach the report" `Quick
      test_batch_counters_flow_to_report;
    Alcotest.test_case "size cap flushes ahead of the window" `Quick
      test_max_tuples_flushes_early;
    QCheck_alcotest.to_alcotest prop_batching_commits_identical_stores;
    QCheck_alcotest.to_alcotest prop_batching_never_ships_more_tuples;
  ]
