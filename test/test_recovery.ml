(* Durability: CRC framing, WAL append/snapshot/recover round-trips,
   record and snapshot formats, both crash models, and true recovery —
   a crashed-and-recovered network reaches the fault-free fix-point
   while refetching no more than the clear-and-refetch baseline. *)

open Helpers
module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Node = Codb_core.Node
module Durable = Codb_core.Durable
module Network = Codb_net.Network
module Frame = Codb_store.Frame
module Backend = Codb_store.Backend
module Wal = Codb_store.Wal

(* --- framing -------------------------------------------------------- *)

let records = [ "alpha"; ""; "a longer record with some bytes in it"; "z" ]

let concat_frames rs = String.concat "" (List.map Frame.encode rs)

let test_frame_round_trip () =
  let got, status = Frame.decode_all (concat_frames records) in
  Alcotest.(check (list string)) "records intact" records got;
  Alcotest.(check bool) "clean" true (status = Frame.Clean)

let test_frame_torn_tail () =
  let whole = concat_frames records in
  (* every proper prefix decodes to a prefix of the records, flagged *)
  for cut = 0 to String.length whole - 1 do
    let got, status = Frame.decode_all (String.sub whole 0 cut) in
    Alcotest.(check bool)
      (Printf.sprintf "cut at %d yields a record prefix" cut)
      true
      (List.length got <= List.length records
      && List.for_all2 String.equal got
           (List.filteri (fun i _ -> i < List.length got) records));
    if cut > 0 && status = Frame.Clean then
      Alcotest.(check int)
        (Printf.sprintf "clean cut at %d is a frame boundary" cut)
        (String.length (concat_frames got))
        cut
  done

let test_frame_bit_flip () =
  let whole = concat_frames records in
  (* flipping any single bit never yields a wrong record: decode
     returns a prefix of the true records and flags the damage (a flip
     in a length field may also resynchronise early — still only true
     records survive the CRC) *)
  for pos = 0 to String.length whole - 1 do
    let b = Bytes.of_string whole in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    let got, _status = Frame.decode_all (Bytes.to_string b) in
    List.iter
      (fun r ->
        Alcotest.(check bool)
          (Printf.sprintf "flip at %d yields only true records" pos)
          true (List.mem r records))
      got
  done

(* --- WAL ------------------------------------------------------------ *)

let test_wal_memory_round_trip () =
  let backend = Backend.memory () in
  let snap = ref "state-0" in
  let wal =
    Wal.create ~backend ~snapshot_every:1000 ~take_snapshot:(fun () -> !snap) ()
  in
  List.iter (Wal.append wal) records;
  let rv = Wal.recover ~backend in
  Alcotest.(check (list string)) "records replayed" records rv.Wal.rec_records;
  Alcotest.(check bool) "no snapshot yet" true (rv.Wal.rec_snapshot = None);
  Alcotest.(check bool) "not truncated" false rv.Wal.rec_truncated;
  snap := "state-1";
  Wal.snapshot_now wal;
  let rv = Wal.recover ~backend in
  Alcotest.(check (option string)) "snapshot wins" (Some "state-1")
    rv.Wal.rec_snapshot;
  Alcotest.(check (list string)) "log truncated by the snapshot" []
    rv.Wal.rec_records;
  Wal.append wal "post-snap";
  let rv = Wal.recover ~backend in
  Alcotest.(check (list string)) "tail after the snapshot" [ "post-snap" ]
    rv.Wal.rec_records

let test_wal_auto_snapshot () =
  let backend = Backend.memory () in
  let appended = ref 0 in
  let wal =
    Wal.create ~backend ~snapshot_every:3 ~take_snapshot:(fun () ->
        Printf.sprintf "snap-%d" !appended) ()
  in
  for i = 1 to 7 do
    appended := i;
    Wal.append wal (Printf.sprintf "r%d" i)
  done;
  let rv = Wal.recover ~backend in
  (* snapshots fired at records 3 and 6; only r7 remains in the log *)
  Alcotest.(check (option string)) "latest snapshot" (Some "snap-6")
    rv.Wal.rec_snapshot;
  Alcotest.(check (list string)) "tail" [ "r7" ] rv.Wal.rec_records;
  let c = Wal.counters wal in
  Alcotest.(check int) "records counted" 7 c.Wal.records_written;
  Alcotest.(check int) "snapshots counted" 2 c.Wal.snapshots_taken

let test_wal_file_backend () =
  (* relative: lands in the dune test sandbox, gitignored as _wal_* *)
  let dir = "_wal_test_unit" in
  let backend = Backend.file ~fsync:false ~dir ~node:"n0" () in
  backend.Backend.reset_log ();
  let wal =
    Wal.create ~backend ~snapshot_every:1000 ~take_snapshot:(fun () -> "s") ()
  in
  List.iter (Wal.append wal) records;
  Wal.snapshot_now wal;
  Wal.append wal "tail-1";
  Wal.append wal "tail-2";
  (* a different backend handle on the same files sees the same bytes *)
  let backend' = Backend.file ~fsync:false ~dir ~node:"n0" () in
  let rv = Wal.recover ~backend:backend' in
  Alcotest.(check (option string)) "snapshot from disk" (Some "s")
    rv.Wal.rec_snapshot;
  Alcotest.(check (list string)) "tail from disk" [ "tail-1"; "tail-2" ]
    rv.Wal.rec_records;
  (* a torn write at the end of the log truncates, never fails *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644
      (Filename.concat dir "n0.wal")
  in
  output_string oc "\x40\x00\x00\x00torn";
  close_out oc;
  let rv = Wal.recover ~backend:backend' in
  Alcotest.(check (list string)) "intact tail survives the torn write"
    [ "tail-1"; "tail-2" ] rv.Wal.rec_records;
  Alcotest.(check bool) "truncation flagged" true rv.Wal.rec_truncated

(* --- durable records ------------------------------------------------ *)

(* One record of every kind. *)
let fixture_records =
  let tuples = [ tup [ i 1; s "x" ]; tup [ i 2; s "y" ] ] in
  [
    Durable.Insert { rel = "data"; rows = packed tuples };
    Durable.Import { rule = "r1"; rel = "data"; hops = 2; at = 0.125; rows = packed tuples };
    Durable.Seq_reserve { upto = 640 };
    Durable.Sub_add
      { sub_id = "s1"; owner = Durable.Olocal; query_text = "a(x) <- b(x)" };
    Durable.Sub_add
      {
        sub_id = "s2";
        owner = Durable.Oremote (Codb_net.Peer_id.of_string "n3");
        query_text = "a(x) <- b(x)";
      };
    Durable.Sub_remove { sub_id = "s1" };
    Durable.Mirror_add
      {
        sub_id = "m1";
        host = Codb_net.Peer_id.of_string "n2";
        query_text = "a(x) <- b(x)";
      };
    Durable.Mirror_remove { sub_id = "m1" };
    Durable.Seen_keys { keys = [ "n0#1"; "n1#64" ] };
  ]

let test_record_round_trip () =
  (* one stream dictionary, one replay mirror, both in record order *)
  let d = Codb_net.Codec.Dict.sender () in
  let tab = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Alcotest.(check bool) "round-trips" true
        (Durable.decode_record ~dict:tab (Durable.encode_record ~dict:d r) = r))
    fixture_records;
  (* decoding is total: corrupt bytes raise Malformed, never anything
     else — an empty peer name included, which Peer_id.of_string
     rejects with Invalid_argument.  Each case is decoded against a
     fresh replay table, as the head of a log tail would be. *)
  let valid =
    Durable.encode_record ~dict:(Codb_net.Codec.Dict.sender ()) (List.hd fixture_records)
  in
  List.iter
    (fun (label, bytes) ->
      match Durable.decode_record ~dict:(Hashtbl.create 4) bytes with
      | exception Codb_net.Codec.Malformed _ -> ()
      | _ -> Alcotest.failf "%s must raise Malformed" label)
    [
      ("unknown tag", "\x10\xff");
      (* marker, tag 5, sub id "s" introduced as id 0, host "" as id 1 *)
      ("empty mirror host", "\x10\x05\x00\x01s\x02\x00\x01q");
      (* marker, tag 3, sub id "s" as id 0, remote owner "" as id 1 *)
      ("empty remote owner", "\x10\x03\x00\x01s\x01\x02\x00\x01q");
      ("unmarked record", String.sub valid 1 (String.length valid - 1));
      ("empty record", "");
    ]

(* --- dictionary-mode records and snapshots ---------------------------- *)

let test_record_dict_round_trip () =
  let module Codec = Codb_net.Codec in
  let tuples = [ tup [ i 1; s "payload-string" ]; tup [ i 2; s "payload-string" ] ] in
  let rs =
    [
      Durable.Insert { rel = "data"; rows = packed tuples };
      Durable.Import
        { rule = "r1"; rel = "data"; hops = 2; at = 0.125; rows = packed tuples };
      Durable.Insert { rel = "data"; rows = packed tuples };
      Durable.Sub_add
        { sub_id = "s1"; owner = Durable.Olocal; query_text = "a(x) <- b(x)" };
      Durable.Sub_remove { sub_id = "s1" };
    ]
  in
  let d = Codec.Dict.sender () in
  let encoded = List.map (fun r -> Durable.encode_record ~dict:d r) rs in
  (* replay exactly as recovery does: one mirror, built in record order *)
  let tab = Hashtbl.create 16 in
  List.iter2
    (fun r bytes ->
      Alcotest.(check bool) "dictionary record round-trips" true
        (Durable.decode_record ~dict:tab bytes = r))
    rs encoded;
  (match encoded with
  | first :: _ :: third :: _ ->
      Alcotest.(check bool) "repeated record shrinks" true
        (String.length third < String.length first);
      (* a record whose strings the replay table never saw introduced
         must fail loudly *)
      (match Durable.decode_record ~dict:(Hashtbl.create 4) third with
      | exception Codec.Malformed _ -> ()
      | _ -> Alcotest.fail "dict record decoded without its introductions")
  | _ -> assert false)

(* A fresh node recovering from the snapshot another node with the
   same declaration wrote must rebuild the exact store; a snapshot
   with any other version byte is ignored. *)
let test_snapshot_recovers_store () =
  let cfg = Topology.generate ~seed:5 Topology.Chain ~n:3 in
  let sys = System.build_exn cfg in
  let _ = System.run_update sys ~initiator:"n0" in
  let node = System.node sys "n1" in
  let recover_from snapshot =
    let backend = Backend.memory () in
    let wal =
      Wal.create ~backend ~snapshot_every:1000 ~take_snapshot:(fun () -> snapshot) ()
    in
    Wal.snapshot_now wal;
    let fresh = Node.create (Option.get (Config.node cfg "n1")) in
    let opts = { Options.default with Options.durability = Options.Dur_wal } in
    (fresh, Durable.recover fresh opts ~backend)
  in
  let snapshot = Durable.encode_snapshot node in
  let again, rv = recover_from snapshot in
  Alcotest.(check bool) "recovered from the snapshot" true rv.Durable.rv_had_snapshot;
  Alcotest.(check int) "snapshot restores the exact store"
    (Database.digest node.Node.store)
    (Database.digest again.Node.store);
  let older version =
    recover_from (String.make 1 (Char.chr version) ^ String.sub snapshot 1 (String.length snapshot - 1))
  in
  let _, rv = older 3 in
  Alcotest.(check bool) "a version-3 snapshot is refused" false rv.Durable.rv_had_snapshot;
  let ignored, rv = older 1 in
  Alcotest.(check bool) "a version-1 snapshot is not read" false
    rv.Durable.rv_had_snapshot;
  (* the fresh node holds only its declared facts, not what n1 imported *)
  Alcotest.(check bool) "no imported tuple restored" true
    (Database.cardinal ignored.Node.store < Database.cardinal node.Node.store)

(* --- the two crash models ------------------------------------------- *)

let chain ?(seed = 5) n = Topology.generate ~seed Topology.Chain ~n

let dur_opts ?(durability = Options.Dur_wal) ?(crashes = []) ?(seed = 11) () =
  {
    Options.default with
    Options.ack_timeout = 0.05;
    max_retries = 8;
    fault_seed = seed;
    crash_plan = crashes;
    durability;
  }

let stores_equal a b =
  List.for_all
    (fun name ->
      Database.equal_contents (System.node a name).Node.store
        (System.node b name).Node.store)
    (System.node_names a)

let refetched sys =
  (Report.chaos_report (System.snapshots sys)).Report.chr_refetched_bytes

let test_volatile_crash_wipes_store () =
  let sys =
    System.build_exn ~opts:(dur_opts ~durability:Options.Dur_volatile ()) (chain 3)
  in
  let _ = System.run_update sys ~initiator:"n0" in
  let before = System.store_digest sys "n1" in
  System.crash_node sys "n1";
  Alcotest.(check bool) "honest crash: imported tuples are gone" true
    (System.store_digest sys "n1" <> before);
  (* the restart's catch-up update refetches everything *)
  System.restart_node sys "n1";
  let _ = System.run sys in
  Alcotest.(check int) "catch-up restores the fix-point" before
    (System.store_digest sys "n1");
  Alcotest.(check bool) "refetch accounted" true (refetched sys > 0)

let test_wal_crash_recovers_store () =
  let sys = System.build_exn ~opts:(dur_opts ()) (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let before = System.store_digest sys "n1" in
  System.crash_node sys "n1";
  Alcotest.(check bool) "honest crash: imported tuples are gone" true
    (System.store_digest sys "n1" <> before);
  System.restart_node sys "n1";
  Alcotest.(check int) "recovery restores the store without the network"
    before
    (System.store_digest sys "n1");
  let dr = System.durability_report sys in
  Alcotest.(check int) "one recovery" 1 dr.System.dr_recoveries;
  Alcotest.(check bool) "log records were written" true (dr.System.dr_wal_records > 0);
  let ch = Report.chaos_report (System.snapshots sys) in
  Alcotest.(check bool) "replayed bytes surfaced in stats" true
    (ch.Report.chr_replayed_bytes > 0)

(* A snapshot truncates the log together with its last sequence
   reservation, and numbers inside the reserved chunk go out after it
   with no new record: recovery must still resume past all of them, or
   peers would drop the reused numbers as duplicates. *)
let test_wal_never_reuses_a_sequence_number () =
  let sys = System.build_exn ~opts:(dur_opts ()) (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let node = System.node sys "n1" in
  Wal.snapshot_now (Option.get node.Node.wal);
  let relay = Option.get node.Node.relay in
  let used =
    List.init 3 (fun _ ->
        let seq = Codb_core.Relay.fresh_seq relay in
        Durable.note_seq node seq;
        seq)
  in
  System.crash_node sys "n1";
  System.restart_node sys "n1";
  let next = Codb_core.Relay.next_seq (Option.get (System.node sys "n1").Node.relay) in
  Alcotest.(check bool) "resumes past every number used" true
    (List.for_all (fun seq -> seq < next) used)

let test_wal_repeated_crashes_recover_store () =
  (* recovery compacts into a fresh log whose stream dictionary starts
     empty again: a second crash must recover as exactly as the first *)
  let sys = System.build_exn ~opts:(dur_opts ()) (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let before = System.store_digest sys "n1" in
  System.crash_node sys "n1";
  System.restart_node sys "n1";
  Alcotest.(check int) "first recovery restores the store" before
    (System.store_digest sys "n1");
  ignore (System.insert_fact sys ~at:"n1" ~rel:"data" (tup [ i 777; s "late" ]));
  let before2 = System.store_digest sys "n1" in
  System.crash_node sys "n1";
  System.restart_node sys "n1";
  Alcotest.(check int) "second recovery also exact" before2
    (System.store_digest sys "n1")

(* Lineage is durable state too: a node that imported rows, with a
   snapshot cut between two updates and log records written after it,
   comes back with every tuple's origin ([explain]) as it was. *)
let test_wal_crash_keeps_lineage () =
  let sys = System.build_exn ~opts:(dur_opts ()) (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let node = System.node sys "n1" in
  let imported () =
    List.filter_map
      (function rel, t, Some (Codb_core.Lineage.Imported _) -> Some (rel, t) | _ -> None)
      (origins node)
  in
  Alcotest.(check bool) "n1 imported rows" true (imported () <> []);
  Wal.snapshot_now (Option.get node.Node.wal);
  let at_snapshot = List.length (imported ()) in
  let source = (List.hd node.Node.outgoing).Codb_cq.Config.source in
  ignore (System.insert_fact sys ~at:source ~rel:"data" (tup [ i 901; s "late" ]));
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check bool) "imports logged after the snapshot" true
    (List.length (imported ()) > at_snapshot);
  let before = origins node in
  System.crash_node sys "n1";
  Alcotest.(check bool) "honest crash: lineage is gone" true (imported () = []);
  System.restart_node sys "n1";
  Alcotest.(check bool) "the log tail was replayed" true
    ((Report.chaos_report (System.snapshots sys)).Report.chr_recovered_records > 0);
  Alcotest.(check bool) "every origin equals the pre-crash one" true (origins node = before)

(* The log takes a snapshot by itself on every [snapshot_every]-th
   record, and that record may be an update's [Import]: the snapshot
   must already see the fresh rows' lineage, or it writes them as base
   rows and truncates the record that said otherwise.  Padding the log
   by every count below [snapshot_every] puts the auto-snapshot on each
   of the update's first records in turn, its first import among
   them. *)
let test_wal_auto_snapshot_on_import_keeps_lineage () =
  for fill = 0 to Durable.snapshot_every - 1 do
    let sys = System.build_exn ~opts:(dur_opts ()) (chain 3) in
    let node = System.node sys "n1" in
    let rel, fact =
      List.find_map
        (function rel, t, Some Codb_core.Lineage.Base -> Some (rel, t) | _ -> None)
        (origins node)
      |> Option.get
    in
    Wal.snapshot_now (Option.get node.Node.wal);
    (* re-logging a stored fact changes nothing at replay *)
    for _ = 1 to fill do
      Durable.log_insert node ~rel [ Row.of_tuple fact ]
    done;
    let _ = System.run_update sys ~initiator:"n0" in
    let before = origins node in
    Alcotest.(check bool) "n1 imported rows" true
      (List.exists
         (function _, _, Some (Codb_core.Lineage.Imported _) -> true | _ -> false)
         before);
    System.crash_node sys "n1";
    System.restart_node sys "n1";
    Alcotest.(check bool)
      (Printf.sprintf "%d records of padding: every origin equals the pre-crash one" fill)
      true
      (origins (System.node sys "n1") = before)
  done

let test_wal_mid_run_crash_reaches_fault_free_fixpoint () =
  let baseline = System.build_exn (chain 5) in
  let _ = System.run_update baseline ~initiator:"n0" in
  let opts = dur_opts ~crashes:[ ("n2", 0.002, Some 0.15) ] () in
  let sys = System.build_exn ~opts (chain 5) in
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check int) "crashed" 1
    (Network.counters (System.net sys)).Network.crashes;
  Alcotest.(check bool) "fix-point equals the fault-free run" true
    (stores_equal baseline sys);
  Alcotest.(check int) "one recovery" 1
    (System.durability_report sys).System.dr_recoveries

let test_wal_refetches_no_more_than_volatile () =
  let crashes = [ ("n2", 0.002, Some 0.15) ] in
  let run durability =
    let sys = System.build_exn ~opts:(dur_opts ~durability ~crashes ()) (chain 5) in
    let _ = System.run_update sys ~initiator:"n0" in
    (sys, refetched sys)
  in
  let wal_sys, wal_bytes = run Options.Dur_wal in
  let vol_sys, vol_bytes = run Options.Dur_volatile in
  Alcotest.(check bool) "both reach the same fix-point" true
    (stores_equal wal_sys vol_sys);
  Alcotest.(check bool)
    (Printf.sprintf "recovery refetches less (wal %d <= volatile %d)" wal_bytes
       vol_bytes)
    true (wal_bytes <= vol_bytes)

(* A crash inside an update, with no other fault: the crashed
   incarnation's retransmission timers must die with it.  Left running,
   they retransmit frames whose acks reach the restarted node's new
   relay, and each one "gives up" against the live node's statistics.
   The update itself may still end forced (a crash wipes the node's
   engagement), so only the give-ups are pinned. *)
let test_crash_inside_update_gives_nothing_up () =
  let config =
    Codb_workload.Glavgen.generate ~seed:1990 ~edges:(Topology.edges Topology.Clique ~n:4) ~n:4 ()
  in
  List.iter
    (fun (durability, name) ->
      let opts =
        {
          (dur_opts ~durability ~crashes:[ ("n1", 0.0167, Some 0.155) ] ()) with
          Options.max_retries = 6;
        }
      in
      let sys = System.build_exn ~opts config in
      let _ = System.run_update sys ~initiator:"n0" in
      Alcotest.(check int) (name ^ ": crashed") 1
        (Network.counters (System.net sys)).Network.crashes;
      Alcotest.(check int) (name ^ ": give-ups") 0
        (Report.chaos_report (System.snapshots sys)).Report.chr_give_ups)
    [ (Options.Dur_volatile, "volatile"); (Options.Dur_wal, "wal") ]

(* --- subscriptions survive recovery --------------------------------- *)

let test_wal_recovers_subscriptions () =
  let opts = { (dur_opts ()) with Options.subscriptions = true } in
  let sys = System.build_exn ~opts (chain 3) in
  let q = parse_query "ans(k, v) <- data(k, v)" in
  let sub_id =
    match System.subscribe sys ~at:"n1" q with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  let mirror_id =
    match System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" q with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe_remote: %s" e
  in
  let _ = System.run sys in
  let _ = System.run_update sys ~initiator:"n0" in
  let hosted = Option.get (System.subscription_answers sys ~at:"n1" sub_id) in
  let mirrored = Option.get (System.subscription_answers sys ~at:"n1" mirror_id) in
  Alcotest.(check bool) "the mirror holds answers" true (mirrored <> []);
  (* cut a snapshot now: the log tail is empty at the crash, so the
     mirror comes back from the snapshot, which keeps no answers *)
  Wal.snapshot_now (Option.get (System.node sys "n1").Node.wal);
  System.crash_node sys "n1";
  System.restart_node sys "n1";
  Alcotest.(check int) "no log record replayed" 0
    (Report.chaos_report (System.snapshots sys)).Report.chr_recovered_records;
  (match System.mirror sys ~at:"n1" mirror_id with
  | None -> Alcotest.fail "mirror not in the snapshot"
  | Some m ->
      Alcotest.(check int) "recovered empty, re-armed" 0 (Codb_sub.Mirror.answer_count m);
      (* the snapshot keeps no accepted flag: the host's reply to the
         re-registration sets it again *)
      Alcotest.(check bool) "unaccepted until the host replies" false
        (Codb_sub.Mirror.accepted m));
  let _ = System.run sys in
  Alcotest.(check bool) "accepted again" true
    (Option.fold ~none:false ~some:Codb_sub.Mirror.accepted
       (System.mirror sys ~at:"n1" mirror_id));
  (match System.subscription_answers sys ~at:"n1" sub_id with
  | None -> Alcotest.fail "hosted subscription lost in the crash"
  | Some answers -> check_tuples "hosted answers recovered" hosted answers);
  (match System.subscription_answers sys ~at:"n1" mirror_id with
  | None -> Alcotest.fail "mirror lost in the crash"
  | Some answers -> check_tuples "mirror answers recovered" mirrored answers)

(* A recovered standing query runs its prepared rule on the recovered
   store, not on the one that died: rows that reach it after the
   restart, by a local write or by an update, keep its answers equal to
   a from-scratch evaluation.  The query is a self-join, so a run reads
   the store's old rows and the whole relation as well as the window. *)
let test_wal_standing_query_reads_recovered_store () =
  let opts = { (dur_opts ()) with Options.subscriptions = true } in
  let sys = System.build_exn ~opts (chain 3) in
  let q = parse_query "ans(k, v, w) <- data(k, v), data(k, w)" in
  let sub_id =
    match System.subscribe sys ~at:"n1" q with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  let _ = System.run_update sys ~initiator:"n0" in
  System.crash_node sys "n1";
  System.restart_node sys "n1";
  let _ = System.run sys in
  List.iteri
    (fun k at -> ignore (System.insert_fact sys ~at ~rel:"data" (tup [ i (950 + k); s "late" ])))
    [ "n0"; "n1"; "n2" ];
  ignore (System.insert_fact sys ~at:"n1" ~rel:"data" (tup [ i 951; s "again" ]));
  let _ = System.run_update sys ~initiator:"n0" in
  let answers = Option.get (System.subscription_answers sys ~at:"n1" sub_id) in
  Alcotest.(check bool) "the late rows reached the answers" true
    (List.exists (fun t -> Tuple.equal t (tup [ i 951; s "late"; s "again" ])) answers);
  check_tuples "answers = from-scratch evaluation" (System.local_answers sys ~at:"n1" q) answers

(* --- the recovery property (qcheck) --------------------------------- *)

module Q2 = QCheck2
module Gen = QCheck2.Gen

(* A seeded chaos plan with a mid-run crash: under [Dur_wal] the
   network still reaches the fault-free fix-point, and the recovered
   node refetches no more than the clear-and-refetch baseline. *)
let gen_plan =
  let open Gen in
  let* seed = int_range 0 999 in
  let* n = int_range 3 5 in
  let* victim = int_range 1 (n - 2) in
  let* crash_at = float_range 0.0005 0.004 in
  let* downtime = float_range 0.05 0.25 in
  return (seed, n, victim, crash_at, downtime)

let prop_recovery_reaches_fault_free_fixpoint =
  Q2.Test.make
    ~name:"recovered chaos runs reach the fault-free fix-point, cheaper"
    ~count:8
    ~print:(fun (seed, n, victim, at, down) ->
      Printf.sprintf "seed=%d n=%d victim=n%d crash=%g downtime=%g" seed n
        victim at down)
    gen_plan
    (fun (seed, n, victim, crash_at, downtime) ->
      let crashes =
        [ (Printf.sprintf "n%d" victim, crash_at, Some (crash_at +. downtime)) ]
      in
      let baseline = System.build_exn (chain n) in
      let _ = System.run_update baseline ~initiator:"n0" in
      let run durability =
        let sys =
          System.build_exn
            ~opts:(dur_opts ~durability ~crashes ~seed ())
            (chain n)
        in
        let _ = System.run_update sys ~initiator:"n0" in
        sys
      in
      let wal_sys = run Options.Dur_wal in
      let vol_sys = run Options.Dur_volatile in
      stores_equal baseline wal_sys
      && stores_equal baseline vol_sys
      && refetched wal_sys <= refetched vol_sys)

let suite =
  [
    Alcotest.test_case "frame round-trip" `Quick test_frame_round_trip;
    Alcotest.test_case "torn tails truncate cleanly" `Quick test_frame_torn_tail;
    Alcotest.test_case "bit flips never forge records" `Quick test_frame_bit_flip;
    Alcotest.test_case "WAL round-trip (memory)" `Quick test_wal_memory_round_trip;
    Alcotest.test_case "WAL auto-snapshot compaction" `Quick test_wal_auto_snapshot;
    Alcotest.test_case "WAL file backend + torn write" `Quick test_wal_file_backend;
    Alcotest.test_case "durable records round-trip" `Quick test_record_round_trip;
    Alcotest.test_case "dictionary records round-trip" `Quick
      test_record_dict_round_trip;
    Alcotest.test_case "a node recovers its own snapshot" `Quick
      test_snapshot_recovers_store;
    Alcotest.test_case "Dur_wal: no sequence number is reused" `Quick
      test_wal_never_reuses_a_sequence_number;
    Alcotest.test_case "Dur_wal: repeated crashes recover exactly" `Quick
      test_wal_repeated_crashes_recover_store;
    Alcotest.test_case "Dur_wal: lineage survives a crash" `Quick
      test_wal_crash_keeps_lineage;
    Alcotest.test_case "Dur_wal: an auto-snapshot on an import keeps lineage" `Quick
      test_wal_auto_snapshot_on_import_keeps_lineage;
    Alcotest.test_case "Dur_volatile: wipe, then catch-up" `Quick
      test_volatile_crash_wipes_store;
    Alcotest.test_case "Dur_wal: recovery without the network" `Quick
      test_wal_crash_recovers_store;
    Alcotest.test_case "mid-run crash reaches the fault-free fix-point" `Quick
      test_wal_mid_run_crash_reaches_fault_free_fixpoint;
    Alcotest.test_case "recovery refetches no more than clear-and-refetch"
      `Quick test_wal_refetches_no_more_than_volatile;
    Alcotest.test_case "a crash inside an update gives nothing up" `Quick
      test_crash_inside_update_gives_nothing_up;
    Alcotest.test_case "a recovered standing query reads the recovered store" `Quick
      test_wal_standing_query_reads_recovered_store;
    Alcotest.test_case "subscriptions survive recovery" `Quick
      test_wal_recovers_subscriptions;
    QCheck_alcotest.to_alcotest prop_recovery_reaches_fault_free_fixpoint;
  ]
