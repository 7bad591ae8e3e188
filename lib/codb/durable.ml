(* The durability layer: what a node writes to its WAL at every commit
   point, what a snapshot contains, and how a restart turns both back
   into live node state.

   Everything durable is one record format on the compact wire codec
   (marker byte, tag byte, varint/zigzag/dictionary-string fields).  A
   log record is one record; a snapshot is the compacted log, a run of
   the records that rebuild the node.  Both are framed and
   CRC-protected by {!Codb_store.Frame} below, and recovery runs both
   through one apply path.  Everything order-sensitive is written
   sorted, so two nodes with equal state produce byte-identical
   snapshots. *)

module Codec = Codb_net.Codec
module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Parser = Codb_cq.Parser
module Pretty = Codb_cq.Pretty
module Query = Codb_cq.Query
module Sub = Codb_sub.Subscription
module Registry = Codb_sub.Registry
module Mirror = Codb_sub.Mirror
module Backend = Codb_store.Backend
module Wal = Codb_store.Wal

(* ---- records -------------------------------------------------------- *)

type owner = Olocal | Oremote of Peer_id.t

type record =
  | Insert of { rel : string; rows : Row.t list }
  | Import of {
      rule : string;
      rel : string;
      hops : int;
      at : float;
      rows : Row.t list;
    }
  | Seq_reserve of { upto : int }
  | Sub_add of { sub_id : string; owner : owner; query_text : string }
  | Sub_remove of { sub_id : string }
  | Mirror_add of { sub_id : string; host : Peer_id.t; query_text : string }
  | Mirror_remove of { sub_id : string }
  | Seen_keys of { keys : string list }

let put_owner w = function
  | Olocal -> Codec.byte w 0
  | Oremote peer ->
      Codec.byte w 1;
      Codec.string w (Peer_id.to_string peer)

let get_owner r =
  match Codec.read_byte r with
  | 0 -> Olocal
  | 1 -> Oremote (Payload.get_peer r)
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown owner tag %d" n))

(* Records carry a marker byte in front of the tag and encode their
   strings against a dictionary that persists across the log stream
   (reset at every compaction, so the live tail always starts from an
   empty table) or across one snapshot; replay rebuilds the mirror in
   record order.  A record without the marker is corrupt. *)
let dict_marker = 0x10

let put_tag w tag =
  Codec.byte w dict_marker;
  Codec.byte w tag

(* The two row-carrying kinds, shared by [put_record] and the snapshot
   writer, which streams its rows straight from the store. *)
let put_insert w ~rel rows =
  put_tag w 0;
  Codec.string w rel;
  Payload.put_rows w rows

let put_import w ~rule ~rel ~hops ~at rows =
  put_tag w 1;
  Codec.string w rule;
  Codec.string w rel;
  Codec.zigzag w hops;
  Codec.float64 w at;
  Payload.put_rows w rows

let put_record w = function
  | Insert { rel; rows } -> put_insert w ~rel rows
  | Import { rule; rel; hops; at; rows } -> put_import w ~rule ~rel ~hops ~at rows
  | Seq_reserve { upto } ->
      put_tag w 2;
      Codec.varint w upto
  | Sub_add { sub_id; owner; query_text } ->
      put_tag w 3;
      Codec.string w sub_id;
      put_owner w owner;
      Codec.raw_string w query_text
  | Sub_remove { sub_id } ->
      put_tag w 4;
      Codec.string w sub_id
  | Mirror_add { sub_id; host; query_text } ->
      put_tag w 5;
      Codec.string w sub_id;
      Codec.string w (Peer_id.to_string host);
      Codec.raw_string w query_text
  | Mirror_remove { sub_id } ->
      put_tag w 6;
      Codec.string w sub_id
  | Seen_keys { keys } ->
      put_tag w 7;
      Codec.varint w (List.length keys);
      List.iter (Codec.raw_string w) keys

let encode_record ~dict record =
  let w = Codec.writer ~initial:64 ~dict () in
  put_record w record;
  Codec.contents w

(* The one record decoder: a log record is one of these, a snapshot a
   run of them. *)
let read_record r =
  if Codec.read_byte r <> dict_marker then
    raise (Codec.Malformed "WAL record without its marker byte");
  match Codec.read_byte r with
  | 0 ->
      let rel = Codec.read_string r in
      Insert { rel; rows = Payload.get_rows r }
  | 1 ->
      let rule = Codec.read_string r in
      let rel = Codec.read_string r in
      let hops = Codec.read_zigzag r in
      let at = Codec.read_float64 r in
      Import { rule; rel; hops; at; rows = Payload.get_rows r }
  | 2 -> Seq_reserve { upto = Codec.read_varint r }
  | 3 ->
      let sub_id = Codec.read_string r in
      let owner = get_owner r in
      Sub_add { sub_id; owner; query_text = Codec.read_raw_string r }
  | 4 -> Sub_remove { sub_id = Codec.read_string r }
  | 5 ->
      let sub_id = Codec.read_string r in
      let host = Payload.get_peer r in
      Mirror_add { sub_id; host; query_text = Codec.read_raw_string r }
  | 6 -> Mirror_remove { sub_id = Codec.read_string r }
  | 7 ->
      let keys = List.init (Codec.read_count r) (fun _ -> Codec.read_raw_string r) in
      Seen_keys { keys }
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown WAL record tag %d" n))

let decode_record ~dict bytes = read_record (Codec.reader ~table:dict bytes)

(* ---- snapshots ------------------------------------------------------- *)

(* A snapshot is the compacted log: a version byte, then the records
   that rebuild the node, back to back against one dictionary fresh
   for the snapshot.  Replaying them through [apply_record] reaches the
   node's store, lineage, transport and subscription state, the same
   fix-point argument the log tail relies on.  Everything is written
   sorted, so equal states give byte-identical snapshots. *)
let snapshot_version = 4

let query_text q = Fmt.str "%a" Pretty.query q

(* Lineage as import records: the windows' row ids, one record per
   (relation, rule, hops, time) in key order, its ids in [Row.compare]
   order of their rows.  A row lies in one window at most, so each
   goes out once. *)
let import_groups store lineage rels =
  let groups = Hashtbl.create 16 in
  let add rel (w : Lineage.window) =
    let { Lineage.li_rule; li_hops; li_at } = w.Lineage.w_import in
    let key = (rel, li_rule, li_hops, li_at) in
    let ids = Option.value ~default:[] (Hashtbl.find_opt groups key) in
    let rec window id acc = if id < w.Lineage.w_since then acc else window (id - 1) (id :: acc) in
    Hashtbl.replace groups key (window (w.Lineage.w_upto - 1) ids)
  in
  List.iter (fun rel -> List.iter (add rel) (Lineage.windows lineage ~rel)) rels;
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold
       (fun ((rel, _, _, _) as key) ids acc ->
         let ids = Array.of_list ids in
         Relation.sort_ids (Database.relation store rel) ids;
         (key, ids) :: acc)
       groups [])

(* One pass, straight from the store: imported rows once each in their
   import records, the other rows in one [Insert] per relation. *)
let encode_snapshot (node : Node.t) =
  let w = Codec.writer ~initial:1024 () in
  Codec.byte w snapshot_version;
  let store = node.Node.store in
  let rels = List.sort String.compare (Database.rel_names store) in
  List.iter
    (fun ((rel, rule, hops, at), ids) ->
      (* each row copied once, as it is written *)
      let relation = Database.relation store rel in
      put_import w ~rule ~rel ~hops ~at
        (Array.fold_right (fun id acc -> Relation.row relation id :: acc) ids []))
    (import_groups store node.Node.lineage rels);
  List.iter
    (fun rel ->
      let relation = Database.relation store rel in
      let imported = Bytes.make (Relation.cardinal relation) '\000' in
      List.iter
        (fun (w : Lineage.window) ->
          Bytes.fill imported w.Lineage.w_since (w.Lineage.w_upto - w.Lineage.w_since) '\001')
        (Lineage.windows node.Node.lineage ~rel);
      let local =
        Array.fold_right
          (fun id acc -> if Bytes.get imported id = '\001' then acc else Relation.row relation id :: acc)
          (Relation.sorted_ids relation) []
      in
      if local <> [] then put_insert w ~rel local)
    rels;
  Option.iter
    (fun relay ->
      (* the reservation's end, not the next number: the snapshot
         truncates the log with its last [Seq_reserve], and numbers
         below the reservation go out after it with no new record *)
      let upto = max (Relay.next_seq relay) node.Node.wal_reserved in
      put_record w (Seq_reserve { upto });
      put_record w (Seen_keys { keys = Relay.seen_keys relay }))
    node.Node.relay;
  Option.iter
    (fun reg ->
      List.iter
        (fun (e : Registry.entry) ->
          let owner =
            match e.Registry.e_owner with
            | Registry.Local _ -> Olocal
            | Registry.Remote peer -> Oremote peer
          in
          put_record w
            (Sub_add
               {
                 sub_id = Sub.id e.Registry.e_sub;
                 owner;
                 query_text = query_text (Sub.query e.Registry.e_sub);
               }))
        (Registry.entries reg))
    node.Node.subs;
  (* a mirror is kept without its answers: a restart re-arms every
     recovered mirror against its host ([System.restart_node]), which
     empties it, and the host's registration snapshot refills it *)
  List.iter
    (fun (sub_id, m) ->
      let query_text = query_text (Mirror.query m) in
      put_record w (Mirror_add { sub_id; host = Mirror.host m; query_text }))
    (Node.mirrors_sorted node);
  Codec.contents w

let decode_snapshot bytes =
  let r = Codec.reader bytes in
  let version = Codec.read_byte r in
  if version <> snapshot_version then
    raise (Codec.Malformed (Printf.sprintf "unknown snapshot version %d" version));
  let rec records acc =
    if Codec.at_end r then List.rev acc else records (read_record r :: acc)
  in
  records []

(* ---- logging hooks (no-ops when the node has no WAL) ----------------- *)

let log (node : Node.t) record =
  match node.Node.wal with
  | None -> ()
  | Some wal -> Wal.append wal (encode_record ~dict:node.Node.wal_dict record)

let log_insert node ~rel rows = if rows <> [] then log node (Insert { rel; rows })

let log_import node ~rule ~rel ~hops ~at rows =
  if rows <> [] then log node (Import { rule; rel; hops; at; rows })

let log_sub_add node ~sub_id ~owner ~query_text =
  log node (Sub_add { sub_id; owner; query_text })

let log_sub_remove node ~sub_id = log node (Sub_remove { sub_id })

let log_mirror_add node ~sub_id ~host ~query_text =
  log node (Mirror_add { sub_id; host; query_text })

let log_mirror_remove node ~sub_id = log node (Mirror_remove { sub_id })

(* Transport sequence numbers are reserved in chunks: one record
   covers the next [seq_chunk] allocations, so the hot send path logs
   once per chunk instead of once per message.  Recovery resumes at
   the reservation's end — burning at most a chunk of unused numbers,
   never reusing one a peer may have recorded. *)
let seq_chunk = 64

let note_seq (node : Node.t) seq =
  match node.Node.wal with
  | None -> ()
  | Some wal ->
      if seq >= node.Node.wal_reserved then begin
        let upto = seq + seq_chunk in
        node.Node.wal_reserved <- upto;
        Wal.append wal
          (encode_record ~dict:node.Node.wal_dict (Seq_reserve { upto }))
      end

(* WAL records between snapshots: each snapshot truncates the log,
   bounding replay work at recovery. *)
let snapshot_every = 64

let install ?counters (node : Node.t) ~backend =
  (* a fresh log starts from an empty stream dictionary *)
  Codec.Dict.bump node.Node.wal_dict;
  let wal =
    Wal.create ?counters
      ~on_truncate:(fun () -> Codec.Dict.bump node.Node.wal_dict)
      ~backend ~snapshot_every
      ~take_snapshot:(fun () -> encode_snapshot node)
      ()
  in
  node.Node.wal <- Some wal;
  wal

let note_bulk_load (node : Node.t) =
  match node.Node.wal with None -> () | Some wal -> Wal.snapshot_now wal

(* ---- recovery -------------------------------------------------------- *)

let restore_sub (node : Node.t) ~sub_id ~owner ~text =
  match node.Node.subs with
  | None -> ()
  | Some reg -> (
      match Parser.parse_query text with
      | Error _ -> ()
      | Ok query -> (
          match
            Sub.create ~sub_id ~source:(Codb_cq.Eval.of_database node.Node.store) query
          with
          | Error _ -> ()
          | Ok sub ->
              ignore (Registry.unregister reg sub_id);
              let owner =
                match owner with
                (* a local client's callback died with the process;
                   the subscription itself survives *)
                | Olocal -> Registry.Local None
                | Oremote peer -> Registry.Remote peer
              in
              ignore (Registry.register reg sub owner : (unit, string) result)))

(* A recovered mirror starts unaccepted: a restart re-arms every mirror
   whose host is another node before any event runs, and a mirror
   hosted on its own node was never accepted (no pipe leads from a node
   to itself). *)
let restore_mirror (node : Node.t) ~sub_id ~host ~text =
  match Parser.parse_query text with
  | Error _ -> ()
  | Ok query ->
      Hashtbl.replace node.Node.sub_mirrors sub_id (Mirror.create ~sub_id ~host query)

let insert_rows (node : Node.t) rel rows =
  match Database.relation_opt node.Node.store rel with
  | None -> ()
  | Some relation -> List.iter (fun row -> ignore (Relation.insert_row relation row)) rows

(* What replay carries past the store: the transport's sequence floor
   and dedup keys, handed to the fresh relay at the end. *)
type replay = { mutable seq_floor : int; mutable seen : string list }

(* The one apply path, for a snapshot's records and the log tail alike.
   An [Import] records the window of the rows it inserts, which the
   store appends as one run; a row it already holds keeps its origin,
   as it did when the update integrated (a stored row is imported at
   most once). *)
let apply_record (node : Node.t) replay record =
  match record with
  | Insert { rel; rows } -> insert_rows node rel rows
  | Import { rule; rel; hops; at; rows } -> (
      match Database.relation_opt node.Node.store rel with
      | None -> ()
      | Some relation ->
          let since = Relation.cardinal relation in
          insert_rows node rel rows;
          Lineage.record node.Node.lineage ~rel ~since ~upto:(Relation.cardinal relation)
            { Lineage.li_rule = rule; li_hops = hops; li_at = at })
  | Seq_reserve { upto } -> replay.seq_floor <- max replay.seq_floor upto
  | Sub_add { sub_id; owner; query_text } ->
      restore_sub node ~sub_id ~owner ~text:query_text
  | Sub_remove { sub_id } -> (
      match node.Node.subs with
      | None -> ()
      | Some reg -> ignore (Registry.unregister reg sub_id))
  | Mirror_add { sub_id; host; query_text } ->
      restore_mirror node ~sub_id ~host ~text:query_text
  | Mirror_remove { sub_id } -> Hashtbl.remove node.Node.sub_mirrors sub_id
  | Seen_keys { keys } -> replay.seen <- keys

type recovery_stats = {
  rv_records : int;  (** intact log records replayed *)
  rv_replayed_bytes : int;  (** snapshot + log bytes consumed *)
  rv_truncated : bool;  (** the log tail was damaged and cut *)
  rv_had_snapshot : bool;
}

(* Rebuild the node from its backend.  Call with the volatile state
   already reset ([Node.reset_volatile] + [Node.reset_store], a fresh
   registry from [Node.configure_subs]): this fills the store, lineage,
   transport and subscription state back in,
   then installs a fresh WAL and immediately snapshots through it —
   compacting the just-replayed log so a second crash recovers from
   the snapshot alone and replays nothing twice. *)
let recover ?counters (node : Node.t) (opts : Options.t) ~backend =
  let r = Wal.recover ~backend in
  (* decoded whole before any of it applies: a snapshot damaged
     anywhere is ignored, never half-applied *)
  let snapshot =
    match Option.map decode_snapshot r.Wal.rec_snapshot with
    | snapshot -> snapshot
    | exception Codec.Malformed _ -> None
  in
  let replay = { seq_floor = 0; seen = [] } in
  Option.iter (List.iter (apply_record node replay)) snapshot;
  let replayed = ref 0 in
  (* the log tail was written after the last truncation, which is where
     the stream dictionary last reset: an empty mirror, grown in record
     order, resolves every dictionary-mode reference *)
  let replay_tab = Hashtbl.create 64 in
  List.iter
    (fun bytes ->
      match decode_record ~dict:replay_tab bytes with
      | record ->
          incr replayed;
          apply_record node replay record
      | exception Codec.Malformed _ -> ())
    r.Wal.rec_records;
  (* the recovered dedup table keeps retransmitted-but-already-
     integrated messages from being re-processed; messages integrated
     after the snapshot lose their dedup keys, so their retransmissions
     re-process idempotently (subsumption dedup at integration) *)
  if Options.reliable opts then
    node.Node.relay <-
      Some (Relay.create ~next_seq:replay.seq_floor ~seen:replay.seen ());
  node.Node.wal_reserved <- replay.seq_floor;
  let wal = install ?counters node ~backend in
  Wal.snapshot_now wal;
  Stats.note_recovery node.Node.stats ~records:!replayed
    ~replayed_bytes:r.Wal.rec_replayed_bytes;
  {
    rv_records = !replayed;
    rv_replayed_bytes = r.Wal.rec_replayed_bytes;
    rv_truncated = r.Wal.rec_truncated;
    rv_had_snapshot = Option.is_some snapshot;
  }
