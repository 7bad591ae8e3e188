(* Chaos sweep (experiment E16 and `make chaos-bench`).

   One global update on a chain workload (every tuple has a single
   path to the sink, so an unretried drop is a real hole), re-run under a grid
   of (message loss rate x transport retries) with duplication and
   delivery jitter always on.  Every cell uses the same fault seed, so
   each cell is exactly reproducible; a designated cell is run twice
   to prove it.

   The metric is *completeness*: the fraction of the fault-free
   fix-point's tuples that the faulted run still committed,
   tuple-for-tuple across every store.  The sweep shows the two sides
   of the protocol hardening:

     retries 0    the transport detects loss but never resends — high
                  drop rates leave holes in the fix-point, and the
                  stall watchdog force-terminates instead of hanging;
     retries max  bounded retransmission restores completeness 1.0 at
                  10%+ loss, at the price of retransmitted messages.

   Cells that must be complete (the fault-free column, and the
   max-retries column up to 10% loss) abort the benchmark when they
   are not, as does a sweep in which no retransmission fires under
   loss at max retries; the runtest gate runs the tiny sweep at three
   seeds, and once with WAL durability on, and pins its counts.  So
   that the last check does not rest on what the fault plan's draws
   happen to hit, every lossy cell also loses one named frame: n1's
   first reply to n0, the message that carries n1's rows, close and
   acknowledgement ({!aim_drop}). *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Node = Codb_core.Node
module Network = Codb_net.Network
module Message = Codb_net.Message
module Peer_id = Codb_net.Peer_id
module Payload = Codb_core.Payload
module Database = Codb_relalg.Database
module Tuple_set = Codb_relalg.Relation.Tuple_set
module Datagen = Codb_workload.Datagen

type workload = { wl_nodes : int; wl_tuples : int; wl_domain : int; wl_skew : float }

let workload ~tiny =
  if tiny then { wl_nodes = 5; wl_tuples = 20; wl_domain = 25; wl_skew = 1.0 }
  else { wl_nodes = 8; wl_tuples = 50; wl_domain = 50; wl_skew = 1.0 }

let config ~seed wl =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = wl.wl_tuples;
      profile = { Datagen.domain_size = wl.wl_domain; skew = wl.wl_skew };
    }
  in
  Topology.generate ~params ~seed Topology.Chain ~n:wl.wl_nodes

(* Transport and noise knobs shared by every faulted cell. *)
let ack_timeout = 0.05

let dup_prob = 0.02

let jitter = 0.002

let drops ~tiny = if tiny then [ 0.0; 0.1 ] else [ 0.0; 0.05; 0.1; 0.2 ]

let retries ~tiny = if tiny then [ 0; 4 ] else [ 0; 2; 6 ]

let max_retries ~tiny = List.fold_left max 0 (retries ~tiny)

let opts_of ~fault_seed ~drop ~n_retries ~durable =
  {
    Options.default with
    Options.fault_seed;
    drop_prob = drop;
    dup_prob = (if drop > 0.0 then dup_prob else 0.0);
    jitter = (if drop > 0.0 then jitter else 0.0);
    ack_timeout;
    max_retries = n_retries;
    durability = (if durable then Options.Dur_wal else Options.Dur_volatile);
  }

type cell = {
  c_drop : float;
  c_retries : int;
  c_completeness : float;
  c_new_tuples : int;
  c_delivered : int;
  c_injected_drops : int;
  c_injected_dups : int;
  c_retransmits : int;
  c_give_ups : int;
  c_dup_suppressed : int;
  c_forced : int;
  c_all_finished : bool;
  c_duration : float;
}

(* Fraction of the baseline stores the faulted run still committed. *)
let completeness ~baseline sys =
  let hit, total =
    List.fold_left
      (fun acc name ->
        let bstore = (System.node baseline name).Node.store in
        let store = (System.node sys name).Node.store in
        List.fold_left
          (fun (hit, total) rel ->
            let have =
              List.fold_left
                (fun s t -> Tuple_set.add t s)
                Tuple_set.empty (Database.tuples store rel)
            in
            let want = Database.tuples bstore rel in
            let found = List.length (List.filter (fun t -> Tuple_set.mem t have) want) in
            (hit + found, total + List.length want))
          acc (Database.rel_names bstore))
      (0, 0) (System.node_names baseline)
  in
  if total = 0 then 1.0 else float_of_int hit /. float_of_int total

(* The aimed loss: n0 discards the first delivery of n1's framed
   update reply, as if the pipe had lost it.  With retries the
   transport resends it; without, the reply is gone. *)
let aim_drop sys =
  let net = System.net sys in
  let n0 = Peer_id.of_string "n0" and n1 = Peer_id.of_string "n1" in
  Option.iter
    (fun deliver ->
      let armed = ref true in
      Network.set_handler net n0 (fun (m : Payload.t Message.t) ->
          match m.Message.payload with
          | Payload.Seq { inner = Payload.Update_batch _; _ }
            when !armed && Peer_id.equal m.Message.src n1 ->
              armed := false
          | _ -> deliver m))
    (Network.handler_of net n0)

let measure ~seed ~baseline ~durable wl ~drop ~n_retries =
  let opts = opts_of ~fault_seed:(seed + 1) ~drop ~n_retries ~durable in
  let sys = System.build_exn ~opts (config ~seed wl) in
  if drop > 0.0 then aim_drop sys;
  let uid = System.run_update sys ~initiator:"n0" in
  let snapshots = System.snapshots sys in
  let report = Option.get (Report.update_report snapshots uid) in
  let chaos = Report.chaos_report snapshots in
  let counters = Network.counters (System.net sys) in
  {
    c_drop = drop;
    c_retries = n_retries;
    c_completeness = completeness ~baseline sys;
    c_new_tuples = report.Report.ur_new_tuples;
    c_delivered = counters.Network.delivered;
    c_injected_drops = counters.Network.injected_drops;
    c_injected_dups = counters.Network.injected_dups;
    c_retransmits = chaos.Report.chr_retransmits;
    c_give_ups = chaos.Report.chr_give_ups;
    c_dup_suppressed = chaos.Report.chr_dup_suppressed;
    c_forced = chaos.Report.chr_forced_terminations;
    c_all_finished = report.Report.ur_all_finished;
    c_duration = report.Report.ur_duration;
  }

let check_invariants ~tiny cells =
  List.iter
    (fun c ->
      if c.c_drop = 0.0 && c.c_completeness < 1.0 then
        failwith
          (Printf.sprintf "fault-free cell lost data: completeness %.4f at retries %d"
             c.c_completeness c.c_retries);
      if
        c.c_retries = max_retries ~tiny
        && c.c_drop <= 0.1
        && c.c_completeness < 1.0
      then
        failwith
          (Printf.sprintf
             "retries failed to restore completeness: %.4f at drop %.2f, retries %d"
             c.c_completeness c.c_drop c.c_retries))
    cells;
  (* a lossy sweep that never resends proves nothing about retries *)
  if
    not
      (List.exists
         (fun c -> c.c_drop > 0.0 && c.c_retries = max_retries ~tiny && c.c_retransmits > 0)
         cells)
  then failwith "no retransmission fired under loss at max retries"

let check_determinism ~seed ~baseline ~durable wl =
  let drop = List.fold_left Float.max 0.0 (drops ~tiny:true) in
  let run () = measure ~seed ~baseline ~durable wl ~drop ~n_retries:2 in
  let a = run () and b = run () in
  if a <> b then
    failwith "chaos sweep is not deterministic: same seed, different cell"

let measure_all ~tiny ~seed ~durable () =
  let wl = workload ~tiny in
  let baseline = System.build_exn ~opts:Options.default (config ~seed wl) in
  let _uid = System.run_update baseline ~initiator:"n0" in
  let cells =
    List.concat_map
      (fun drop ->
        List.map
          (fun n_retries ->
            measure ~seed ~baseline ~durable wl ~drop ~n_retries)
          (retries ~tiny))
      (drops ~tiny)
  in
  check_invariants ~tiny cells;
  check_determinism ~seed ~baseline ~durable wl;
  (wl, cells)

let print_table wl cells =
  Tables.print
    ~title:
      (Printf.sprintf
         "E16 - chaos sweep (chain N=%d, %d tuples/node, dup %.2f, jitter %gs, ack \
          %gs)"
         wl.wl_nodes wl.wl_tuples dup_prob jitter ack_timeout)
    ~header:
      [
        "drop"; "retries"; "completeness"; "inj drops"; "inj dups"; "retransmits";
        "give-ups"; "dups supp"; "forced"; "sim (s)";
      ]
    (List.map
       (fun c ->
         [
           Printf.sprintf "%.2f" c.c_drop;
           Tables.i0 c.c_retries;
           Printf.sprintf "%.4f" c.c_completeness;
           Tables.i0 c.c_injected_drops;
           Tables.i0 c.c_injected_dups;
           Tables.i0 c.c_retransmits;
           Tables.i0 c.c_give_ups;
           Tables.i0 c.c_dup_suppressed;
           Tables.i0 c.c_forced;
           Tables.f4 c.c_duration;
         ])
       cells)

(* The counted part of the tiny sweep, for the runtest gate. *)
let gate ~seed ~durable =
  let wl, cells = measure_all ~tiny:true ~seed ~durable () in
  Emit.(
    Obj
      [
        ("durability", Str (if durable then "wal" else "volatile"));
        ( "workload",
          Obj
            [
              ("topology", Str "chain"); ("nodes", Int wl.wl_nodes);
              ("tuples_per_node", Int wl.wl_tuples); ("domain", Int wl.wl_domain);
              ("skew", Num wl.wl_skew);
            ] );
        ("seed", Int seed);
        ( "transport",
          Obj
            [
              ("ack_timeout_s", Num ack_timeout); ("dup_prob", Num dup_prob);
              ("jitter_s", Num jitter);
            ] );
        ( "cells",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("drop", Fixed (2, c.c_drop)); ("retries", Int c.c_retries);
                     ("completeness", Fixed (4, c.c_completeness));
                     ("new_tuples", Int c.c_new_tuples);
                     ("delivered_msgs", Int c.c_delivered);
                     ("injected_drops", Int c.c_injected_drops);
                     ("injected_dups", Int c.c_injected_dups);
                     ("retransmits", Int c.c_retransmits); ("give_ups", Int c.c_give_ups);
                     ("dup_suppressed", Int c.c_dup_suppressed);
                     ("forced_terminations", Int c.c_forced);
                     ("all_finished", Bool c.c_all_finished);
                   ])
               cells) );
      ])

let run ?(seed = 1500) ?(durable = false) () =
  let wl, cells = measure_all ~tiny:false ~seed ~durable () in
  print_table wl cells
