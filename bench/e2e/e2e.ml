(* End-to-end benchmark: one workload per process, driven by a closed
   loop (one client, one thread, no think time).

     e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]

   A run times several set-ups, then repeats passes — a fresh system
   plus the workload's fixed operations — until [--seconds] have been
   measured, and finally checks the outputs against the paper's
   semantics (see Gates).  With [--trace 0] it prints the end-to-end
   metrics; with [--trace 1] it adds one traced pass and prints the
   per-layer metrics.  The last line of standard output is the result
   object; a wrong answer exits 1 without one. *)

module System = Codb_core.System
module Report = Codb_core.Report
module Network = Codb_net.Network
module Eval = Codb_cq.Eval
module W = Workloads

let now = Unix.gettimeofday

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit code)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  toy : bool;
  out : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let toy = ref false and out = ref "bench/e2e/out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " W.names);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S seconds of passes to measure (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 print the per-layer metrics of traced passes");
      ("--toy", Arg.Set toy, " tiny sizes, every gate on (the runtest rule)");
      ("--out", Arg.Set_string out, "DIR where --trace 1 writes <workload>.spans.jsonl");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload W [--seed N] [--seconds S] [--trace 0|1]";
  if !trace <> 0 && !trace <> 1 then die 2 "--trace takes 0 or 1";
  {
    workload = !workload;
    seed = !seed;
    seconds = !seconds;
    trace = !trace = 1;
    toy = !toy;
    out = !out;
  }

type pass = {
  traced : bool;
  setup_s : float;
  op_s : float array;  (** wall seconds of every op, in workload order *)
  sim_ms : float list;  (** simulated time of each non-bulk op *)
  alloc_mb : float;
  msgs : int;
  wire_bytes : int;
  attempted : int;
  failed : int;
  heap_mb : float;  (** the process's peak major heap after the pass *)
  signature : string;  (** exact counters every pass must repeat *)
  layers : (string * string * float) list;  (** name, unit, value *)
}

(* The last pass's system and outcomes, kept for the gates. *)
type last = {
  sys : System.t;
  subs : (string * string) list;
  answered : (string * Codb_cq.Query.t * System.query_outcome) list;
  uids : Codb_core.Ids.update_id list;
}

let step_layer = function
  | W.Insert _ -> "op.insert"
  | W.Update _ -> "op.update"
  | W.Query _ -> "op.query"

(* Layer counters read from the system's own reports after a pass. *)
let report_layers sys snaps ~net0 ~ev0 ~gc0 ~msgs ~wire_bytes ~events ~insert_us ~answered
    ~uids ~failed ~attempted =
  let net1 = Network.counters (System.net sys) and ev1 = Eval.counters () in
  let gc1 = Gc.quick_stat () in
  let updates = List.filter_map (Report.update_report snaps) uids in
  let chaos = Report.chaos_report snaps and sub = Report.sub_report snaps in
  let dur = System.durability_report sys in
  let f = float_of_int in
  let total g = f (List.fold_left (fun acc r -> acc + g r) 0 updates) in
  let new_tuples = total (fun r -> r.Report.ur_new_tuples) in
  let dups = total (fun r -> r.Report.ur_dup_suppressed) in
  let queries g = f (List.fold_left (fun acc (_, _, o) -> acc + g o) 0 answered) in
  [
    ("net.events", "count", f events);
    ("net.delivered", "count", f msgs);
    ("net.dropped", "count", f (net1.Network.dropped - net0.Network.dropped));
    ( "net.injected_drops",
      "count",
      f (net1.Network.injected_drops - net0.Network.injected_drops) );
    ("net.injected_dups", "count", f (net1.Network.injected_dups - net0.Network.injected_dups));
    ("net.bytes_per_msg", "B", if msgs > 0 then f wire_bytes /. f msgs else 0.);
    ("eval.probes", "count", f (ev1.Eval.probes - ev0.Eval.probes));
    ("eval.scans", "count", f (ev1.Eval.scans - ev0.Eval.scans));
    ("eval.planned", "count", f (ev1.Eval.planned - ev0.Eval.planned));
    ("eval.zone_visited", "count", f (ev1.Eval.zone_visited - ev0.Eval.zone_visited));
    ("eval.zone_pruned", "count", f (ev1.Eval.zone_pruned - ev0.Eval.zone_pruned));
    ("update.new_tuples", "count", new_tuples);
    ("update.dup_suppressed", "count", dups);
    ( "update.useful_ratio",
      "ratio",
      if new_tuples +. dups > 0. then new_tuples /. (new_tuples +. dups) else 0. );
    ("update.data_msgs", "count", total (fun r -> r.Report.ur_data_msgs));
    ("update.control_msgs", "count", total (fun r -> r.Report.ur_control_msgs));
    ( "update.max_hops",
      "count",
      f (List.fold_left (fun acc r -> max acc r.Report.ur_longest_path) 0 updates) );
    ("update.nulls_created", "count", total (fun r -> r.Report.ur_nulls));
    ("query.data_msgs", "count", queries (fun o -> o.System.qo_data_msgs));
    ("query.bytes", "B", queries (fun o -> o.System.qo_bytes));
    ("query.answers", "count", queries (fun o -> List.length o.System.qo_answers));
    ("sub.deltas_in", "count", f sub.Report.sr_deltas_in);
    ("sub.deltas_out", "count", f sub.Report.sr_deltas_out);
    ("sub.push_msgs", "count", f sub.Report.sr_push_msgs);
    ("sub.bytes", "B", f sub.Report.sr_bytes);
    ("sub.probes", "count", f sub.Report.sr_probes);
    ("reliable.retransmits", "count", f chaos.Report.chr_retransmits);
    ("reliable.dup_suppressed", "count", f chaos.Report.chr_dup_suppressed);
    ("reliable.give_ups", "count", f chaos.Report.chr_give_ups);
    ("reliable.query_timeouts", "count", f chaos.Report.chr_query_timeouts);
    ("wal.records", "count", f dur.System.dr_wal_records);
    ("wal.bytes", "B", f dur.System.dr_wal_bytes);
    ("wal.snapshots", "count", f dur.System.dr_snapshots);
    ("wal.snapshot_bytes", "B", f dur.System.dr_snapshot_bytes);
    ("wal.recoveries", "count", f dur.System.dr_recoveries);
    ("wal.recovery_ms", "ms", dur.System.dr_recovery_ms);
    ("wal.replayed_bytes", "B", f dur.System.dr_replayed_bytes);
    ("store.tuples", "count", f (System.total_tuples sys));
    ("store.insert_us_p50", "us", Stat.median insert_us);
    ("gc.minor_collections", "count", f (gc1.Gc.minor_collections - gc0.Gc.minor_collections));
    ("gc.major_collections", "count", f (gc1.Gc.major_collections - gc0.Gc.major_collections));
    ( "gc.promoted_mb",
      "MB",
      (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) *. f (Sys.word_size / 8) /. 1e6 );
    ("ops.failed_frac", "ratio", if attempted > 0 then f failed /. f attempted else 0.);
  ]

let last_pass = ref None

(* One pass: a fresh system, then every op of the workload. *)
let run_pass ~traced ~layers (wl : W.t) =
  last_pass := None;
  (* null identifiers are printed on the wire: restart them so every
     pass ships the same bytes *)
  Codb_relalg.Value.reset_null_counter ();
  Gc.full_major ();
  let t0 = now () in
  let sys, subs = W.setup wl in
  let setup_s = now () -. t0 in
  if traced then Spans.start sys;
  let on_restart = if traced then Spans.wrap_peer sys else ignore in
  let net0 = Network.counters (System.net sys) and ev0 = Eval.counters () in
  let gc0 = Gc.quick_stat () and alloc0 = Gc.allocated_bytes () in
  let insert_us = ref [] and per_op = ref [] and events = ref 0 in
  let exec step =
    let span = if traced then Spans.begin_op () else 0 in
    let a0 = if traced then Gc.allocated_bytes () else 0. in
    let sim = System.now sys in
    let t0 = now () in
    let outcome = W.exec ~on_restart sys step in
    let t1 = now () in
    if traced then
      Spans.end_op span ~layer:(step_layer step) ~t0 ~t1 ~sim
        ~alloc:(Gc.allocated_bytes () -. a0);
    (match outcome with
    | W.Inserted -> insert_us := ((t1 -. t0) *. 1e6) :: !insert_us
    | W.Updated (_, n) -> events := !events + n
    | W.Answered _ -> ());
    (step, outcome)
  in
  List.iter
    (fun (op : W.op) ->
      let t0 = now () in
      let outcomes = List.map exec op.W.steps in
      per_op := (op, outcomes, now () -. t0) :: !per_op)
    wl.W.ops;
  let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1e6 in
  let net1 = Network.counters (System.net sys) in
  let msgs = net1.Network.delivered - net0.Network.delivered in
  let wire_bytes = net1.Network.total_bytes - net0.Network.total_bytes in
  let per_op = List.rev !per_op in
  let op_s = Array.of_list (List.map (fun (_, _, dt) -> dt) per_op) in
  let wall = Array.fold_left ( +. ) 0. op_s in
  let outcomes = List.concat_map (fun (_, o, _) -> o) per_op in
  let uids = List.filter_map (function _, W.Updated (uid, _) -> Some uid | _ -> None) outcomes in
  let answered =
    List.filter_map
      (function W.Query { at; query }, W.Answered o -> Some (at, query, o) | _ -> None)
      outcomes
  in
  let snaps = System.snapshots sys in
  (* an op's simulated time is the paper's: each update's duration
     from the statistics module plus each query's answer time *)
  let sim_ms =
    List.filter_map
      (fun ((op : W.op), outcomes, _) ->
        if op.W.bulk then None
        else
          Some
            (1000.
            *. Stat.sum
                 (List.map
                    (function
                      | _, W.Updated (uid, _) -> (
                          match Report.update_report snaps uid with
                          | Some r -> r.Report.ur_duration
                          | None -> 0.)
                      | _, W.Answered o -> o.System.qo_finished -. o.System.qo_started
                      | _, W.Inserted -> 0.)
                    outcomes)))
      per_op
  in
  let attempted = List.length outcomes in
  let failed = List.length (List.filter (fun (_, _, o) -> not o.System.qo_complete) answered) in
  let signature =
    String.concat " "
      (List.map string_of_int [ msgs; wire_bytes; !events; System.total_tuples sys ]
      @ List.map (Printf.sprintf "%h") sim_ms
      @ List.map (fun (_, _, o) -> string_of_int (List.length o.System.qo_answers)) answered)
  in
  let layers =
    if not layers then []
    else if traced then Spans.summary ~measured_s:wall
    else
      report_layers sys snaps ~net0 ~ev0 ~gc0 ~msgs ~wire_bytes ~events:!events
        ~insert_us:!insert_us ~answered ~uids ~failed ~attempted
  in
  last_pass := Some { sys; subs; answered; uids };
  {
    traced;
    setup_s;
    op_s;
    sim_ms;
    alloc_mb;
    msgs;
    wire_bytes;
    attempted;
    failed;
    heap_mb = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    signature;
    layers;
  }

(* Untraced passes until [seconds] are measured and at least
   [min_passes] have run; with tracing, one traced pass follows, so
   its spans are the only ones ever held in memory. *)
let min_passes = 3

let run_passes ~args wl =
  let deadline = now () +. args.seconds in
  let rec go n acc =
    if n >= min_passes && now () >= deadline then List.rev acc
    else go (n + 1) (run_pass ~traced:false ~layers:args.trace wl :: acc)
  in
  let untraced = go 0 [] in
  if args.trace then untraced @ [ run_pass ~traced:true ~layers:true wl ] else untraced

let setup_reps = 5

let check what = function
  | [] -> ()
  | violations ->
      List.iter (fun v -> prerr_endline ("e2e: " ^ what ^ ": " ^ v)) violations;
      die 1 "%s: %d violation(s)" what (List.length violations)

(* Returns the storm gate's [System.local_answers] timings. *)
let gates ~args (wl : W.t) passes =
  let l = Option.get !last_pass in
  (match List.sort_uniq String.compare (List.map (fun p -> p.signature) passes) with
  | [ _ ] -> ()
  | _ ->
      die 1 "passes disagree on messages, bytes or simulated times%s"
        (if args.trace then " (the trace perturbed the run)" else ""));
  if !Spans.codec_errors > 0 then
    die 1 "%d delivered payload(s) failed to decode after re-encoding" !Spans.codec_errors;
  List.iter
    (fun p ->
      match List.find_opt (fun (n, _, _) -> n = "trace.coverage") p.layers with
      | Some (_, _, c) when Float.abs (c -. 1.) > 0.05 ->
          die 1 "spans cover %.1f%% of the op wall time, not within 5%%" (c *. 100.)
      | _ -> ())
    passes;
  if l.uids <> [] then begin
    check "saturation" (Gates.saturated l.sys);
    check "termination" (Gates.unforced l.sys l.uids)
  end;
  match wl.W.name with
  | "query-storm" ->
      let violations, ms = Gates.storm_matches wl l.answered in
      check "query-time vs materialised answers" violations;
      ms
  | "mixed-chaos" ->
      check "faults vs fault-free replay"
        (Gates.chaos_matches ~faulty:(l.sys, l.subs, l.answered)
           ~calm:(W.replay (W.fault_free wl)));
      []
  | _ -> []

(* The checkout's revision when it is a git work tree, read without
   running git. *)
let git_revision () =
  let read path =
    try
      let ic = open_in path in
      let line = String.trim (input_line ic) in
      close_in ic;
      Some line
    with Sys_error _ | End_of_file -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " ->
      let ref_name = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown" (read (Filename.concat ".git" ref_name))
  | Some rev -> rev
  | None -> "unknown"

let json_number name v =
  if not (Float.is_finite v) then die 1 "metric %s is not a finite number" name;
  Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let entry (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", " (List.map entry metrics))

let main () =
  let args = parse_args () in
  (match Sys.getenv_opt "CODB_DOMAINS" with
  | None -> ()
  | Some v when String.trim v = "1" -> ()
  | Some v ->
      die 2
        "CODB_DOMAINS=%s: the parallel runtime bypasses the handler wrapper; unset it or set it to 1"
        v);
  let size = if args.toy then W.toy else W.full in
  let wl =
    match W.make ~name:args.workload ~seed:args.seed size with
    | Some wl -> wl
    | None -> die 2 "unknown workload %S (one of: %s)" args.workload (String.concat ", " W.names)
  in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = now () in
        ignore (W.setup wl : System.t * (string * string) list);
        now () -. t0)
  in
  let passes = run_passes ~args wl in
  let local_ms = gates ~args wl passes in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let attempted = List.fold_left (fun acc p -> acc + p.attempted) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + p.failed) 0 passes in
  Printf.printf
    "{\"bench\": \"e2e\", \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \"passes\": %d, \"nproc\": %d, \"ocaml\": %S, \"git\": %S}\n"
    wl.W.name args.seed args.seconds args.trace (List.length passes)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version (git_revision ());
  (* each op runs once per pass; its fastest repeat filters out the
     host's interference (see README, "Noise") *)
  let fastest =
    Array.init (Array.length (List.hd untraced).op_s) (fun i ->
        List.fold_left (fun acc p -> Float.min acc p.op_s.(i)) infinity untraced)
  in
  let total = Array.fold_left ( +. ) 0. in
  let ops_ms ~bulk =
    List.filteri (fun i _ -> (List.nth wl.W.ops i).W.bulk = bulk) (Array.to_list fastest)
    |> List.map (fun s -> s *. 1000.)
  in
  let first = List.hd untraced in
  let metrics =
    if not args.trace then
      [
        ("setup_s", "s", Stat.median (setups @ List.map (fun p -> p.setup_s) untraced));
        ("alloc_mb", "MB", Stat.median (List.map (fun p -> p.alloc_mb) untraced));
        ("peak_heap_mb", "MB", first.heap_mb);
        ("msgs", "count", float_of_int first.msgs);
        ("wire_bytes", "B", float_of_int first.wire_bytes);
      ]
    else begin
      let traced = List.find (fun p -> p.traced) passes in
      (* counters repeat exactly across untraced passes; their times
         are medians *)
      let layer name =
        Stat.median
          (List.filter_map
             (fun p -> List.find_map (fun (n, _, v) -> if n = name then Some v else None) p.layers)
             untraced)
      in
      let codec_s =
        List.fold_left
          (fun acc (n, _, v) ->
            if n = "codec.encode_s" || n = "codec.decode_s" then acc +. v else acc)
          0. traced.layers
      in
      (try Sys.mkdir args.out 0o755 with Sys_error _ -> ());
      Spans.write (Filename.concat args.out (wl.W.name ^ ".spans.jsonl"));
      List.map (fun (n, unit, _) -> (n, unit, layer n)) first.layers
      @ traced.layers
      @ [
          ("ops.pass_s", "s", total fastest);
          ("ops.wall_ms_p50", "ms", Stat.median (ops_ms ~bulk:false));
          ("ops.wall_ms_p90", "ms", Stat.quantile 0.9 (ops_ms ~bulk:false));
          ("ops.sim_ms_p50", "ms", Stat.median first.sim_ms);
          ( "ops.sim_ms_mean",
            "ms",
            Stat.sum first.sim_ms /. float_of_int (List.length first.sim_ms) );
          ("update.bulk_s", "s", Stat.sum (ops_ms ~bulk:true) /. 1000.);
          ("net.msgs_per_s", "1/s", float_of_int first.msgs /. total fastest);
          ("eval.local_answers_ms_p50", "ms", Stat.median local_ms);
          ( "trace.overhead_frac",
            "ratio",
            ((total traced.op_s -. codec_s)
            /. Stat.median (List.map (fun p -> total p.op_s) untraced))
            -. 1. );
        ]
    end
  in
  print_result ~attempted ~failed metrics

let () = main ()
