(* Recovery bench (experiment E21 and `make recovery-bench`).

   The E16 chaos chain workload with a mid-run crash of a middle node:
   one global update starts at the head, the victim crashes while data
   is flowing through it and restarts shortly after.  The same seeded
   scenario runs under the two honest-crash durability models:

     volatile   clear-and-refetch — the store restarts empty (modulo
                the node's own declared facts) and a catch-up global
                update re-imports everything through the rules;
     wal        true recovery — snapshot + log replay rebuild the
                store, lineage, transport sequence state and
                subscription state; only the in-flight tail is
                re-delivered by the reliable transport.

   Both modes must reach a store digest identical, node for node, to
   the fault-free reference run — recovery is allowed to cost, never
   to lose.  The headline gate is the refetch axis: the volatile run
   must refetch at least 2x the bytes the WAL run does.  The recovery
   axes (recovery time, records replayed, WAL volume) are reported
   alongside.  The WAL cell runs twice to prove determinism.  The full
   run goes to BENCH_recovery.json; the runtest gate runs the tiny
   workload and pins its counts. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Network = Codb_net.Network
module Datagen = Codb_workload.Datagen

type workload = {
  wl_nodes : int;
  wl_tuples : int;
  wl_domain : int;
  wl_skew : float;
  wl_crash_at : float;
      (* the crash must find the victim with real state both committed
         and in flight.  Full run, read off a traced fault-free run of
         the same scenario: n4 commits its one import (n5's batch) at
         0.0125 s and its own batch is on the wire to n3 until
         0.0145 s; the crash falls midway (EXPERIMENTS E21). *)
}

let workload ~tiny =
  if tiny then
    { wl_nodes = 4; wl_tuples = 20; wl_domain = 25; wl_skew = 1.0;
      wl_crash_at = 0.0045 }
  else
    { wl_nodes = 8; wl_tuples = 50; wl_domain = 50; wl_skew = 1.0;
      wl_crash_at = 0.0135 }

let config ~seed wl =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = wl.wl_tuples;
      profile = { Datagen.domain_size = wl.wl_domain; skew = wl.wl_skew };
    }
  in
  Topology.generate ~params ~seed Topology.Chain ~n:wl.wl_nodes

let ack_timeout = 0.05

let max_retries = 8

(* The victim sits mid-chain, crashes while the update flows through
   it and comes back well inside the transport's retry span. *)
let victim wl = Printf.sprintf "n%d" (wl.wl_nodes / 2)

let downtime = 0.1

let opts_of ~fault_seed ~durability ~crashes =
  {
    Options.default with
    Options.fault_seed;
    ack_timeout;
    max_retries;
    durability;
    crash_plan = crashes;
  }

type cell = {
  m_mode : string;
  m_digests : (string * int) list;
  m_refetched : int;
  m_recoveries : int;
  m_recovered_records : int;
  m_replayed_bytes : int;
  m_recovery_ms : float;
  m_wal_records : int;
  m_wal_bytes : int;
  m_snapshots : int;
  m_snapshot_bytes : int;
  m_delivered : int;
  m_retransmits : int;
  m_wall_s : float;
}

let measure ~seed ~durability ~crashes ~mode wl =
  let opts = opts_of ~fault_seed:(seed + 1) ~durability ~crashes in
  let sys = System.build_exn ~opts (config ~seed wl) in
  let wall_start = Unix.gettimeofday () in
  let _uid = System.run_update sys ~initiator:"n0" in
  let wall = Unix.gettimeofday () -. wall_start in
  let chaos = Report.chaos_report (System.snapshots sys) in
  let dr = System.durability_report sys in
  {
    m_mode = mode;
    m_digests = System.store_digests sys;
    m_refetched = chaos.Report.chr_refetched_bytes;
    m_recoveries = dr.System.dr_recoveries;
    m_recovered_records = dr.System.dr_recovered_records;
    m_replayed_bytes = dr.System.dr_replayed_bytes;
    m_recovery_ms = dr.System.dr_recovery_ms;
    m_wal_records = dr.System.dr_wal_records;
    m_wal_bytes = dr.System.dr_wal_bytes;
    m_snapshots = dr.System.dr_snapshots;
    m_snapshot_bytes = dr.System.dr_snapshot_bytes;
    m_delivered = (Network.counters (System.net sys)).Network.delivered;
    m_retransmits = chaos.Report.chr_retransmits;
    m_wall_s = wall;
  }

type outcome = {
  o_reference : cell;
  o_volatile : cell;
  o_wal : cell;
  o_reduction : float;
}

let check_gates ~where o =
  let check_digests c =
    if c.m_digests <> o.o_reference.m_digests then
      failwith
        (Printf.sprintf
           "%s: %s run diverged from the fault-free reference stores" where
           c.m_mode)
  in
  check_digests o.o_volatile;
  check_digests o.o_wal;
  if o.o_wal.m_recoveries <> 1 then
    failwith
      (Printf.sprintf "%s: expected exactly 1 WAL recovery, saw %d" where
         o.o_wal.m_recoveries);
  if o.o_wal.m_refetched * 2 > o.o_volatile.m_refetched then
    failwith
      (Printf.sprintf
         "%s: recovery refetched %d B, clear-and-refetch %d B — below the 2x \
          bar"
         where o.o_wal.m_refetched o.o_volatile.m_refetched)

let strip_wall c = { c with m_wall_s = 0.0; m_recovery_ms = 0.0 }

let measure_all ~seed wl =
  let crashes = [ (victim wl, wl.wl_crash_at, Some (wl.wl_crash_at +. downtime)) ] in
  let reference =
    measure ~seed ~durability:Options.default.Options.durability ~crashes:[]
      ~mode:"reference" wl
  in
  let volatile =
    measure ~seed ~durability:Options.Dur_volatile ~crashes ~mode:"volatile" wl
  in
  let wal = measure ~seed ~durability:Options.Dur_wal ~crashes ~mode:"wal" wl in
  let wal' = measure ~seed ~durability:Options.Dur_wal ~crashes ~mode:"wal" wl in
  if strip_wall wal <> strip_wall wal' then
    failwith "recovery bench is not deterministic: same seed, different run";
  let o =
    {
      o_reference = reference;
      o_volatile = volatile;
      o_wal = wal;
      o_reduction =
        (* a zero-refetch recovery divides by 1: the reported ratio
           stays finite (and JSON-representable) *)
        float_of_int volatile.m_refetched
        /. float_of_int (max 1 wal.m_refetched);
    }
  in
  check_gates ~where:(Printf.sprintf "chain N=%d" wl.wl_nodes) o;
  o

let print_table wl o =
  Tables.print
    ~title:
      (Printf.sprintf
         "E21 - crash recovery (chain N=%d, %d tuples/node, crash %s at %gs \
          for %gs, ack %gs, retries %d)"
         wl.wl_nodes wl.wl_tuples (victim wl) wl.wl_crash_at downtime
         ack_timeout max_retries)
    ~header:
      [
        "mode"; "refetched B"; "recov"; "records"; "replayed B"; "recovery ms";
        "wal records"; "wal B"; "snaps"; "delivered"; "retransmits";
      ]
    (List.map
       (fun c ->
         [
           c.m_mode;
           Tables.i0 c.m_refetched;
           Tables.i0 c.m_recoveries;
           Tables.i0 c.m_recovered_records;
           Tables.i0 c.m_replayed_bytes;
           Printf.sprintf "%.3f" c.m_recovery_ms;
           Tables.i0 c.m_wal_records;
           Tables.i0 c.m_wal_bytes;
           Tables.i0 c.m_snapshots;
           Tables.i0 c.m_delivered;
           Tables.i0 c.m_retransmits;
         ])
       [ o.o_reference; o.o_volatile; o.o_wal ]);
  Printf.printf "refetch reduction (volatile / wal): %.2fx\n%!" o.o_reduction

let fields ~seed wl o =
  Emit.(
    Obj
      [
        ("benchmark", Str "recovery");
        ( "workload",
          Obj
            [
              ("topology", Str "chain"); ("nodes", Int wl.wl_nodes);
              ("tuples_per_node", Int wl.wl_tuples); ("domain", Int wl.wl_domain);
              ("skew", Num wl.wl_skew);
            ] );
        ("seed", Int seed);
        ("transport", Obj [ ("ack_timeout_s", Num ack_timeout); ("max_retries", Int max_retries) ]);
        ( "crash",
          Obj
            [
              ("victim", Str (victim wl)); ("at_s", Num wl.wl_crash_at);
              ("restart_s", Num (wl.wl_crash_at +. downtime));
            ] );
        ( "modes",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("mode", Str c.m_mode);
                     ("digests_match_reference", Bool (c.m_digests = o.o_reference.m_digests));
                     ("refetched_bytes", Int c.m_refetched); ("recoveries", Int c.m_recoveries);
                     ("recovered_records", Int c.m_recovered_records);
                     ("replayed_bytes", Int c.m_replayed_bytes);
                     ("recovery_ms", Measured (3, c.m_recovery_ms));
                     ("wal_records", Int c.m_wal_records); ("wal_bytes", Int c.m_wal_bytes);
                     ("snapshots", Int c.m_snapshots);
                     ("snapshot_bytes", Int c.m_snapshot_bytes);
                     ("delivered_msgs", Int c.m_delivered);
                     ("retransmits", Int c.m_retransmits); ("wall_s", Measured (4, c.m_wall_s));
                   ])
               [ o.o_reference; o.o_volatile; o.o_wal ]) );
        ("refetch_reduction", Fixed (2, o.o_reduction));
        ("deterministic", Bool true);
        ("ok", Bool true);
      ])

let gate ~seed =
  let wl = workload ~tiny:true in
  fields ~seed wl (measure_all ~seed wl)

let run ?(seed = 1500) () =
  let wl = workload ~tiny:false in
  let o = measure_all ~seed wl in
  print_table wl o;
  Emit.json ~path:"BENCH_recovery.json" (fields ~seed wl o)
