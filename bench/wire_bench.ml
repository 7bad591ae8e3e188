(* Wire-efficiency ablation (experiment E15 and `make wire-bench`).

   One global update on a skewed clique workload — every node both
   fans in and fans out, so the same closure arrives over many links
   in a short interval, which is exactly the traffic shape batching
   and duplicate suppression exist for — run once plain and once with
   batching, every message sized as its link frame (compact codec, one
   incremental string dictionary per link).  Batching buffers deltas
   per destination inside [batch_window] and ships them as one
   [Update_batch] per flush: it changes how many messages carry the
   same tuples.

   The batched corner must commit exactly the same final stores as the
   plain one (checked tuple-for-tuple); the interesting output is the
   message count and byte volume.  Results are printed as a table;
   `wire-json` also writes the full run to BENCH_wire.json.  The
   runtest gate runs the tiny workload and pins its counts.
   Invariant violations (diverging stores, batching that *increases*
   bytes or data messages) abort the benchmark, so the gate fails. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Node = Codb_core.Node
module Network = Codb_net.Network
module Database = Codb_relalg.Database
module Datagen = Codb_workload.Datagen

type workload = { wl_nodes : int; wl_tuples : int; wl_domain : int; wl_skew : float }

let workload ~tiny =
  if tiny then { wl_nodes = 5; wl_tuples = 30; wl_domain = 30; wl_skew = 1.0 }
  else { wl_nodes = 10; wl_tuples = 80; wl_domain = 60; wl_skew = 1.0 }

let config wl =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = wl.wl_tuples;
      profile = { Datagen.domain_size = wl.wl_domain; skew = wl.wl_skew };
    }
  in
  Topology.generate ~params ~seed:1500 Topology.Clique ~n:wl.wl_nodes

type corner = { c_name : string; c_batched : bool }

(* The plain configuration first: it is the equivalence baseline. *)
let corners = [ { c_name = "plain"; c_batched = false }; { c_name = "batch"; c_batched = true } ]

(* Ten network latencies: enough for several delta waves of the ring
   fix-point to land inside one window. *)
let batch_window = 10.0 *. Options.default.Options.latency

let opts_of c =
  { Options.default with Options.batch_window = (if c.c_batched then batch_window else 0.0) }

type measurement = {
  m_corner : corner;
  m_sys : System.t;
  m_report : Report.update_report;
  m_delivered : int;  (* every message, control included *)
  m_total_bytes : int;  (* network-wide, control included *)
  m_wall_s : float;
}

let measure wl c =
  let sys = System.build_exn ~opts:(opts_of c) (config wl) in
  let wall_start = Unix.gettimeofday () in
  let uid = System.run_update sys ~initiator:"n0" in
  let wall = Unix.gettimeofday () -. wall_start in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  let counters = Network.counters (System.net sys) in
  {
    m_corner = c;
    m_sys = sys;
    m_report = report;
    m_delivered = counters.Network.delivered;
    m_total_bytes = counters.Network.total_bytes;
    m_wall_s = wall;
  }

let check_stores_equal baseline m =
  let names = System.node_names baseline.m_sys in
  List.iter
    (fun name ->
      let store sys = (System.node sys name).Node.store in
      if not (Database.equal_contents (store baseline.m_sys) (store m.m_sys)) then
        failwith
          (Printf.sprintf
             "wire ablation diverged: %s and %s disagree on the store of %s"
             baseline.m_corner.c_name m.m_corner.c_name name))
    names

let ratio base own = if own > 0 then float_of_int base /. float_of_int own else nan

let check_invariants measurements =
  let baseline = List.hd measurements in
  (* the ablation varies the traffic shape only: every corner must
     reach the plain fix-point, store for store *)
  List.iter (check_stores_equal baseline) (List.tl measurements);
  (* batching exists to save bytes and messages; a batched corner
     that costs more than the plain one is a regression worth failing
     on *)
  List.iter
    (fun m ->
      if m.m_total_bytes > baseline.m_total_bytes then
        failwith
          (Printf.sprintf "batching increased wire bytes: %s %d B > %s %d B"
             m.m_corner.c_name m.m_total_bytes baseline.m_corner.c_name
             baseline.m_total_bytes);
      let msgs c = c.m_report.Report.ur_data_msgs in
      if msgs m > msgs baseline then
        failwith
          (Printf.sprintf "batching increased data messages: %s %d > %s %d"
             m.m_corner.c_name (msgs m) baseline.m_corner.c_name (msgs baseline)))
    (List.tl measurements)

let measure_all ~tiny () =
  let wl = workload ~tiny in
  let measurements = List.map (measure wl) corners in
  check_invariants measurements;
  (wl, measurements)

let print_table wl measurements =
  let baseline = List.hd measurements in
  Tables.print
    ~title:
      (Printf.sprintf
         "E15 - wire ablation (clique N=%d, %d tuples/node, zipf %.1f over %d values)"
         wl.wl_nodes wl.wl_tuples wl.wl_skew wl.wl_domain)
    ~header:
      [
        "corner"; "data msgs"; "batches"; "avg tup/batch"; "coalesced"; "bytes";
        "bytes vs plain"; "msgs vs plain"; "sim (s)";
      ]
    (List.map
       (fun m ->
         [
           m.m_corner.c_name;
           Tables.i0 m.m_report.Report.ur_data_msgs;
           Tables.i0 m.m_report.Report.ur_batches;
           Tables.f2 (Report.avg_batch m.m_report);
           Tables.i0 m.m_report.Report.ur_coalesced;
           Tables.i0 m.m_total_bytes;
           Printf.sprintf "%.2fx" (ratio baseline.m_total_bytes m.m_total_bytes);
           Printf.sprintf "%.2fx"
             (ratio baseline.m_report.Report.ur_data_msgs m.m_report.Report.ur_data_msgs);
           Tables.f4 m.m_report.Report.ur_duration;
         ])
       measurements)

let fields wl measurements =
  let baseline = List.hd measurements in
  Emit.(
    Obj
      [
        ("benchmark", Str "wire-ablation");
        ( "workload",
          Obj
            [
              ("topology", Str "clique"); ("nodes", Int wl.wl_nodes);
              ("tuples_per_node", Int wl.wl_tuples); ("domain", Int wl.wl_domain);
              ("skew", Num wl.wl_skew);
            ] );
        ("batch_window_s", Num batch_window);
        ( "corners",
          List
            (List.map
               (fun m ->
                 let r = m.m_report in
                 Obj
                   [
                     ("name", Str m.m_corner.c_name); ("batched", Bool m.m_corner.c_batched);
                     ("data_msgs", Int r.Report.ur_data_msgs);
                     ("control_msgs", Int r.Report.ur_control_msgs);
                     ("delivered_msgs", Int m.m_delivered);
                     ("batches", Int r.Report.ur_batches);
                     ("batch_tuples", Int r.Report.ur_batch_tuples);
                     ("coalesced", Int r.Report.ur_coalesced);
                     ("data_bytes", Int r.Report.ur_bytes);
                     ("total_bytes", Int m.m_total_bytes);
                     ( "bytes_reduction",
                       Fixed (2, ratio baseline.m_total_bytes m.m_total_bytes) );
                     ( "data_msg_reduction",
                       Fixed
                         (2, ratio baseline.m_report.Report.ur_data_msgs r.Report.ur_data_msgs)
                     );
                     ("sim_duration_s", Measured (4, r.Report.ur_duration));
                     ("new_tuples", Int r.Report.ur_new_tuples);
                     ("wall_s", Measured (4, m.m_wall_s));
                   ])
               measurements) );
        ("stores_identical_across_corners", Bool true);
      ])

let gate () =
  let wl, measurements = measure_all ~tiny:true () in
  fields wl measurements

let run ?(json = false) () =
  let wl, measurements = measure_all ~tiny:false () in
  print_table wl measurements;
  if json then Emit.json ~path:"BENCH_wire.json" (fields wl measurements)
