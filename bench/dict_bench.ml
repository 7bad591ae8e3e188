(* Zone-map and dictionary-recovery bench (experiment E22 and
   `make dict-bench`).

   Two legs:

     zone      a packed relation big enough for many 4096-row chunks,
               scanned through selective range queries.  Answers must
               match a direct filter over the relation tuple-for-tuple;
               the headline gate is the chunk-skip ratio (total chunks
               / chunks actually scanned) >= 2 on the selective
               workload;
     durable   the E21 crash/restart chain under Dur_wal, whose log
               records and snapshots are dictionary-encoded.  The
               recovered run must match the fault-free reference
               digests node for node, with exactly one recovery.

   The durable leg runs twice to prove determinism.  The full run
   goes to BENCH_dict.json; the runtest gate runs the tiny workload
   and pins its counts. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Database = Codb_relalg.Database
module Schema = Codb_relalg.Schema
module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Eval = Codb_cq.Eval
module Parser = Codb_cq.Parser

let parse_query text =
  match Parser.parse_query text with Ok q -> q | Error e -> failwith e

(* ---- leg 1: zone-map chunk pruning ---------------------------------- *)

type zone_workload = { zw_rows : int; zw_cutoffs : int list }

let zone_workload ~tiny =
  (* rows span several 4096-row chunks; cutoffs sweep selectivity.
     Values are inserted in key order, the clustered layout zone maps
     reward (time-ordered facts, monotone ids). *)
  if tiny then { zw_rows = 3 * 4096; zw_cutoffs = [ 400; 2048 ] }
  else { zw_rows = 16 * 4096; zw_cutoffs = [ 512; 2048; 8192 ] }

type zone_cell = {
  z_cutoff : int;
  z_rows : int;
  z_answers : int;
  z_visited : int;
  z_pruned : int;
  z_skip_ratio : float;
  z_wall_s : float;
}

let zone_db rows =
  let r_schema = Schema.make "r" [ ("a", Value.Tint); ("b", Value.Tint) ] in
  let db = Database.create [ r_schema ] in
  for k = 0 to rows - 1 do
    ignore
      (Database.insert db "r"
         [| Value.Int k; Value.Int (k * 7 mod 1009) |])
  done;
  db

let time_runs f =
  let reps = 5 in
  let start = Unix.gettimeofday () in
  for _ = 1 to reps do
    f ()
  done;
  (Unix.gettimeofday () -. start) /. float_of_int reps

let measure_zone_cell db rows cutoff =
  let q = parse_query (Printf.sprintf "ans(x, y) <- r(x, y), x < %d" cutoff) in
  let source = Eval.of_database db in
  let expected =
    List.filter
      (fun t -> Value.compare t.(0) (Value.Int cutoff) < 0)
      (Codb_relalg.Relation.to_list (Database.relation db "r"))
  in
  Eval.reset_counters ();
  let answers = List.map Codb_relalg.Row.to_tuple (Eval.answer_rows source q) in
  let c = Eval.counters () in
  if List.sort Tuple.compare answers <> expected then
    failwith
      (Printf.sprintf "zone-mapped scan changed the answers at cutoff %d" cutoff);
  let visited = c.Eval.zone_visited and pruned = c.Eval.zone_pruned in
  {
    z_cutoff = cutoff;
    z_rows = rows;
    z_answers = List.length answers;
    z_visited = visited;
    z_pruned = pruned;
    z_skip_ratio = float_of_int (visited + pruned) /. float_of_int (max 1 visited);
    z_wall_s = time_runs (fun () -> ignore (Eval.answer_rows source q));
  }

let measure_zone zw =
  let db = zone_db zw.zw_rows in
  List.map (measure_zone_cell db zw.zw_rows) zw.zw_cutoffs

let check_zone_gates ~where cells =
  (* the most selective cutoff is the headline: at least half the
     chunks must be skipped outright *)
  match cells with
  | [] -> failwith (Printf.sprintf "%s: no zone cells" where)
  | best :: _ ->
      if best.z_skip_ratio < 2.0 then
        failwith
          (Printf.sprintf
             "%s: chunk-skip ratio %.2fx at cutoff %d (visited %d, pruned \
              %d, answers %d) — below the 2x bar"
             where best.z_skip_ratio best.z_cutoff best.z_visited
             best.z_pruned best.z_answers)

(* ---- leg 2: dictionary-encoded durability --------------------------- *)

type dur_workload = { dw_nodes : int; dw_tuples : int; dw_crash_at : float }

let dur_workload ~tiny =
  if tiny then { dw_nodes = 4; dw_tuples = 20; dw_crash_at = 0.0045 }
  else { dw_nodes = 8; dw_tuples = 50; dw_crash_at = 0.01 }

let dur_config dw =
  let params =
    { Topology.default_params with Topology.tuples_per_node = dw.dw_tuples }
  in
  Topology.generate ~params ~seed:1500 Topology.Chain ~n:dw.dw_nodes

type dur_cell = {
  d_mode : string;
  d_digests : (string * int) list;
  d_recoveries : int;
  d_wal_bytes : int;
  d_snapshot_bytes : int;
  d_replayed_bytes : int;
  d_wall_s : float;
}

let measure_dur dw ~durability ~crashes ~mode =
  let opts =
    {
      Options.default with
      Options.fault_seed = 1501;
      ack_timeout = 0.05;
      max_retries = 8;
      durability;
      crash_plan = crashes;
    }
  in
  let sys = System.build_exn ~opts (dur_config dw) in
  let wall_start = Unix.gettimeofday () in
  let _ = System.run_update sys ~initiator:"n0" in
  let wall = Unix.gettimeofday () -. wall_start in
  let dr = System.durability_report sys in
  {
    d_mode = mode;
    d_digests = System.store_digests sys;
    d_recoveries = dr.System.dr_recoveries;
    d_wal_bytes = dr.System.dr_wal_bytes;
    d_snapshot_bytes = dr.System.dr_snapshot_bytes;
    d_replayed_bytes = dr.System.dr_replayed_bytes;
    d_wall_s = wall;
  }

let measure_dur_all dw =
  let victim = Printf.sprintf "n%d" (dw.dw_nodes / 2) in
  let crashes = [ (victim, dw.dw_crash_at, Some (dw.dw_crash_at +. 0.1)) ] in
  let reference =
    measure_dur dw ~durability:Options.default.Options.durability ~crashes:[]
      ~mode:"reference"
  in
  let wal = measure_dur dw ~durability:Options.Dur_wal ~crashes ~mode:"wal" in
  (reference, wal)

let check_dur_gates ~where (reference, wal) =
  if wal.d_digests <> reference.d_digests then
    failwith
      (Printf.sprintf "%s: wal run diverged from the fault-free reference" where);
  if wal.d_recoveries <> 1 then
    failwith
      (Printf.sprintf "%s: expected exactly one recovery, saw %d" where
         wal.d_recoveries)

(* ---- assembly ------------------------------------------------------- *)

type outcome = { o_zone : zone_cell list; o_dur : dur_cell * dur_cell }

let strip_dur_wall c = { c with d_wall_s = 0.0 }

let measure_all ~tiny =
  let label = if tiny then "tiny" else "full" in
  let zone = measure_zone (zone_workload ~tiny) in
  check_zone_gates ~where:(label ^ " zone leg") zone;
  let dw = dur_workload ~tiny in
  let ((_, wal) as dur) = measure_dur_all dw in
  let _, wal' = measure_dur_all dw in
  if strip_dur_wall wal <> strip_dur_wall wal' then
    failwith "dict bench durable leg is not deterministic";
  check_dur_gates ~where:(label ^ " durable leg") dur;
  { o_zone = zone; o_dur = dur }

let print_tables ~tiny o =
  let zw = zone_workload ~tiny in
  Tables.print
    ~title:(Printf.sprintf "E22a - zone-map chunk pruning (%d rows, chunk 4096)" zw.zw_rows)
    ~header:
      [ "cutoff"; "answers"; "chunks"; "pruned"; "skip x"; "ms" ]
    (List.map
       (fun z ->
         [
           Tables.i0 z.z_cutoff;
           Tables.i0 z.z_answers;
           Tables.i0 z.z_visited;
           Tables.i0 z.z_pruned;
           Tables.f2 z.z_skip_ratio;
           Tables.f2 (z.z_wall_s *. 1000.0);
         ])
       o.o_zone);
  let reference, wal = o.o_dur in
  let dw = dur_workload ~tiny in
  Tables.print
    ~title:
      (Printf.sprintf "E22b - dictionary recovery (chain N=%d, crash n%d at %gs)"
         dw.dw_nodes (dw.dw_nodes / 2) dw.dw_crash_at)
    ~header:[ "mode"; "recov"; "wal B"; "snapshot B"; "replayed B" ]
    (List.map
       (fun d ->
         [
           d.d_mode;
           Tables.i0 d.d_recoveries;
           Tables.i0 d.d_wal_bytes;
           Tables.i0 d.d_snapshot_bytes;
           Tables.i0 d.d_replayed_bytes;
         ])
       [ reference; wal ])

let fields ~tiny o =
  let zw = zone_workload ~tiny in
  let dw = dur_workload ~tiny in
  let reference, wal = o.o_dur in
  Emit.(
    Obj
      [
        ("benchmark", Str "dict");
        ( "zone",
          Obj
            [
              ("rows", Int zw.zw_rows); ("chunk_rows", Int 4096);
              ( "cells",
                List
                  (List.map
                     (fun z ->
                       Obj
                         [
                           ("cutoff", Int z.z_cutoff); ("answers", Int z.z_answers);
                           ("chunks_visited", Int z.z_visited);
                           ("chunks_pruned", Int z.z_pruned);
                           ("skip_ratio", Fixed (2, z.z_skip_ratio));
                           ("wall_s", Measured (5, z.z_wall_s));
                         ])
                     o.o_zone) );
            ] );
        ( "durable",
          Obj
            [
              ("nodes", Int dw.dw_nodes); ("crash_at_s", Num dw.dw_crash_at);
              ( "cells",
                List
                  (List.map
                     (fun d ->
                       Obj
                         [
                           ("mode", Str d.d_mode);
                           ("digests_match_reference", Bool (d.d_digests = reference.d_digests));
                           ("recoveries", Int d.d_recoveries); ("wal_bytes", Int d.d_wal_bytes);
                           ("snapshot_bytes", Int d.d_snapshot_bytes);
                           ("replayed_bytes", Int d.d_replayed_bytes);
                           ("wall_s", Measured (4, d.d_wall_s));
                         ])
                     [ reference; wal ]) );
            ] );
        ("deterministic", Bool true);
        ("ok", Bool true);
      ])

let gate () = fields ~tiny:true (measure_all ~tiny:true)

let run () =
  let o = measure_all ~tiny:false in
  print_tables ~tiny:false o;
  Emit.json ~path:"BENCH_dict.json" (fields ~tiny:false o)
