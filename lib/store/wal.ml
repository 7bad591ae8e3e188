(* The per-node write-ahead log.

   Callers append small codec-encoded records describing every durable
   state change; every [snapshot_every] records the WAL asks the owner
   for a full state snapshot, writes it (atomically, via the backend),
   and truncates the log — bounding both recovery time and log size.

   Recovery is the inverse: latest valid snapshot plus the log tail,
   with the tail cut at the first torn or corrupt record rather than
   failing (everything after a damaged record is untrustworthy; the
   update protocol re-delivers whatever was lost). *)

type counters = {
  mutable records_written : int;
  mutable bytes_written : int;
  mutable snapshots_taken : int;
  mutable snapshot_bytes : int;
}

type t = {
  backend : Backend.t;
  snapshot_every : int;
  take_snapshot : unit -> string;
  on_truncate : (unit -> unit) option;
  mutable since_snapshot : int;
  counters : counters;
}

let fresh_counters () =
  { records_written = 0; bytes_written = 0; snapshots_taken = 0; snapshot_bytes = 0 }

let create ?(counters = fresh_counters ()) ?on_truncate ~backend ~snapshot_every
    ~take_snapshot () =
  { backend; snapshot_every; take_snapshot; on_truncate; since_snapshot = 0; counters }

let counters t = t.counters

let snapshot_now t =
  let snap = Frame.encode (t.take_snapshot ()) in
  t.backend.Backend.write_snapshot snap;
  t.backend.Backend.reset_log ();
  t.backend.Backend.sync ();
  t.since_snapshot <- 0;
  t.counters.snapshots_taken <- t.counters.snapshots_taken + 1;
  t.counters.snapshot_bytes <- t.counters.snapshot_bytes + String.length snap;
  (* the log was just cut: stream-level encoder state (the incremental
     record dictionary) must restart so the new tail is self-contained *)
  match t.on_truncate with Some f -> f () | None -> ()

let append t payload =
  let framed = Frame.encode payload in
  t.backend.Backend.append_log framed;
  t.backend.Backend.sync ();
  t.counters.records_written <- t.counters.records_written + 1;
  t.counters.bytes_written <- t.counters.bytes_written + String.length framed;
  t.since_snapshot <- t.since_snapshot + 1;
  if t.since_snapshot >= t.snapshot_every then snapshot_now t

type recovery = {
  rec_snapshot : string option;
  rec_records : string list;
  rec_truncated : bool;
  rec_replayed_bytes : int;
}

let recover ~backend =
  let rec_snapshot, snap_bytes =
    match backend.Backend.read_snapshot () with
    | None -> (None, 0)
    | Some framed -> (
        (* a snapshot is one framed record; damage means we fall back
           to an empty store plus whatever the log holds *)
        match Frame.decode_all framed with
        | [ payload ], Frame.Clean -> (Some payload, String.length framed)
        | _ -> (None, 0))
  in
  let log = backend.Backend.log_contents () in
  let records, status = Frame.decode_all log in
  let replayed =
    List.fold_left (fun acc r -> acc + 8 + String.length r) 0 records
  in
  {
    rec_snapshot;
    rec_records = records;
    rec_truncated = status <> Frame.Clean;
    rec_replayed_bytes = snap_bytes + replayed;
  }
