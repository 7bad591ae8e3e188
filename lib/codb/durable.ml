(* The durability layer: what a node writes to its WAL at every commit
   point, what a snapshot contains, and how a restart turns both back
   into live node state.

   The on-disk format reuses the compact wire codec: each log record
   and each snapshot is one codec message (tag byte + varint/zigzag/
   dictionary-string fields), framed and CRC-protected by
   {!Codb_store.Frame} below.  Everything order-sensitive is written
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

(* ---- log records ----------------------------------------------------- *)

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
   empty table); replay rebuilds the mirror in record order.  A record
   without the marker is corrupt. *)
let dict_marker = 0x10

let encode_record ~dict record =
  let w = Codec.writer ~initial:64 ~mode:(Codec.Linked dict) () in
  Codec.byte w dict_marker;
  (match record with
  | Insert { rel; rows } ->
      Codec.byte w 0;
      Codec.string w rel;
      Payload.put_rows w rows
  | Import { rule; rel; hops; at; rows } ->
      Codec.byte w 1;
      Codec.string w rule;
      Codec.string w rel;
      Codec.zigzag w hops;
      Codec.float64 w at;
      Payload.put_rows w rows
  | Seq_reserve { upto } ->
      Codec.byte w 2;
      Codec.varint w upto
  | Sub_add { sub_id; owner; query_text } ->
      Codec.byte w 3;
      Codec.string w sub_id;
      put_owner w owner;
      Codec.raw_string w query_text
  | Sub_remove { sub_id } ->
      Codec.byte w 4;
      Codec.string w sub_id
  | Mirror_add { sub_id; host; query_text } ->
      Codec.byte w 5;
      Codec.string w sub_id;
      Codec.string w (Peer_id.to_string host);
      Codec.raw_string w query_text
  | Mirror_remove { sub_id } ->
      Codec.byte w 6;
      Codec.string w sub_id);
  Codec.contents w

let get_record r =
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
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown WAL record tag %d" n))

let decode_record ~dict bytes =
  let r = Codec.reader ~mode:(Codec.R_linked dict) bytes in
  if Codec.read_byte r <> dict_marker then
    raise (Codec.Malformed "WAL record without its marker byte");
  get_record r

(* ---- snapshots ------------------------------------------------------- *)

type sub_entry = { ss_id : string; ss_owner : owner; ss_query : string }

(* A mirror is kept without its answers: a restart re-arms every
   recovered mirror against its host ([System.restart_node]), which
   empties it, and the host's registration snapshot refills it. *)
type mirror_snap = {
  ms_id : string;
  ms_host : Peer_id.t;
  ms_query : string;
  ms_accepted : bool;
}

type snapshot = {
  sn_store : (string * Row.t list) list;
  sn_lineage : ((string * Row.t) * Lineage.import list) list;
  sn_next_seq : int;
  sn_seen : string list;
  sn_subs : sub_entry list;
  sn_mirrors : mirror_snap list;
}

let snapshot_version = 3

let query_text q = Fmt.str "%a" Pretty.query q

let registry_entries (node : Node.t) =
  match node.Node.subs with
  | None -> []
  | Some reg ->
      List.map
        (fun (e : Registry.entry) ->
          {
            ss_id = Sub.id e.Registry.e_sub;
            ss_owner =
              (match e.Registry.e_owner with
              | Registry.Local _ -> Olocal
              | Registry.Remote peer -> Oremote peer);
            ss_query = query_text (Sub.query e.Registry.e_sub);
          })
        (Registry.entries reg)

let mirror_entries (node : Node.t) =
  List.map
    (fun (sub_id, m) ->
      {
        ms_id = sub_id;
        ms_host = Mirror.host m;
        ms_query = query_text (Mirror.query m);
        ms_accepted = Mirror.accepted m;
      })
    (Node.mirrors_sorted node)

(* Every relation by name, with its row ids in [Row.compare] order:
   sorted once per snapshot, read by both encoding passes. *)
let sorted_store (node : Node.t) =
  let store = node.Node.store in
  List.map
    (fun rel ->
      let relation = Database.relation store rel in
      (rel, relation, Relation.sorted_ids relation))
    (List.sort String.compare (Database.rel_names store))

let put_snapshot w (node : Node.t) store =
  Codec.varint w (List.length store);
  List.iter
    (fun (rel, relation, ids) ->
      Codec.string w rel;
      Codec.varint w (Array.length ids);
      Array.iter (fun id -> Payload.put_row w (Relation.row relation id)) ids)
    store;
  let lineage = Lineage.all node.Node.lineage in
  Codec.varint w (List.length lineage);
  List.iter
    (fun ((rel, row), imports) ->
      Codec.string w rel;
      Payload.put_row w row;
      Codec.varint w (List.length imports);
      List.iter
        (fun (i : Lineage.import) ->
          Codec.string w i.Lineage.li_rule;
          Codec.zigzag w i.Lineage.li_hops;
          Codec.float64 w i.Lineage.li_at)
        imports)
    lineage;
  (match node.Node.relay with
  | None ->
      Codec.varint w 0;
      Codec.varint w 0
  | Some relay ->
      (* the reservation's end, not the next number: the snapshot
         truncates the log with its last [Seq_reserve], and numbers
         below the reservation go out after it with no new record *)
      Codec.varint w (max (Relay.next_seq relay) node.Node.wal_reserved);
      let seen = Relay.seen_keys relay in
      Codec.varint w (List.length seen);
      List.iter (Codec.raw_string w) seen);
  let subs = registry_entries node in
  Codec.varint w (List.length subs);
  List.iter
    (fun s ->
      Codec.string w s.ss_id;
      put_owner w s.ss_owner;
      Codec.raw_string w s.ss_query)
    subs;
  let mirrors = mirror_entries node in
  Codec.varint w (List.length mirrors);
  List.iter
    (fun m ->
      Codec.string w m.ms_id;
      Codec.string w (Peer_id.to_string m.ms_host);
      Codec.raw_string w m.ms_query;
      Codec.byte w (if m.ms_accepted then 1 else 0))
    mirrors

(* A snapshot pulls the strings out into one sorted, front-coded
   table: entry k stores only the length of the prefix it shares with
   entry k-1 plus the remaining suffix, so families like
   [n1/17, n1/18, ...] pay their common stem once.  The body is
   written in [Tabled] mode against the sorted ids (a first pass
   harvests the strings, a second encodes against the preloaded
   table).  The first pass runs over a counter: it keeps the strings
   and the body's size, and no bytes. *)
let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec go k = if k < n && a.[k] = b.[k] then go (k + 1) else k in
  go 0

let encode_snapshot (node : Node.t) =
  let store = sorted_store node in
  (* pass 1: harvest the distinct strings *)
  let probe = Codec.counter ~mode:Codec.Tabled () in
  put_snapshot probe node store;
  let strings = List.sort String.compare (Codec.dict_strings probe) in
  (* pass 2: encode the body against the sorted table *)
  let body = Codec.writer ~initial:(Codec.size probe) ~mode:Codec.Tabled () in
  Codec.preload body strings;
  put_snapshot body node store;
  let w = Codec.writer ~initial:(Codec.size body + 64) () in
  Codec.byte w snapshot_version;
  Codec.varint w (List.length strings);
  let prev = ref "" in
  List.iter
    (fun s ->
      let shared = common_prefix_len !prev s in
      Codec.varint w shared;
      Codec.raw_string w (String.sub s shared (String.length s - shared));
      prev := s)
    strings;
  Codec.add_bytes w (Codec.contents body);
  Codec.contents w

let get_snapshot r =
  let sn_store =
    List.init (Codec.read_count r) (fun _ ->
        let rel = Codec.read_string r in
        (rel, Payload.get_rows r))
  in
  let sn_lineage =
    List.init (Codec.read_count r) (fun _ ->
        let rel = Codec.read_string r in
        let row = Payload.get_row r in
        let imports =
          List.init (Codec.read_count r) (fun _ ->
              let li_rule = Codec.read_string r in
              let li_hops = Codec.read_zigzag r in
              let li_at = Codec.read_float64 r in
              { Lineage.li_rule; li_hops; li_at })
        in
        ((rel, row), imports))
  in
  let sn_next_seq = Codec.read_varint r in
  let sn_seen = List.init (Codec.read_count r) (fun _ -> Codec.read_raw_string r) in
  let sn_subs =
    List.init (Codec.read_count r) (fun _ ->
        let ss_id = Codec.read_string r in
        let ss_owner = get_owner r in
        { ss_id; ss_owner; ss_query = Codec.read_raw_string r })
  in
  let sn_mirrors =
    List.init (Codec.read_count r) (fun _ ->
        let ms_id = Codec.read_string r in
        let ms_host = Payload.get_peer r in
        let ms_query = Codec.read_raw_string r in
        { ms_id; ms_host; ms_query; ms_accepted = Codec.read_byte r = 1 })
  in
  { sn_store; sn_lineage; sn_next_seq; sn_seen; sn_subs; sn_mirrors }

let decode_snapshot bytes =
  let r = Codec.reader bytes in
  let version = Codec.read_byte r in
  if version <> snapshot_version then
    raise (Codec.Malformed (Printf.sprintf "unknown snapshot version %d" version));
  let count = Codec.read_count r in
  let arr = Array.make count "" in
  let prev = ref "" in
  for k = 0 to count - 1 do
    let shared = Codec.read_varint r in
    if shared > String.length !prev then
      raise (Codec.Malformed "front-coded table prefix overruns");
    let s = String.sub !prev 0 shared ^ Codec.read_raw_string r in
    arr.(k) <- s;
    prev := s
  done;
  let body_at = String.length bytes - Codec.remaining r in
  get_snapshot
    (Codec.reader ~mode:(Codec.R_tabled arr)
       (String.sub bytes body_at (String.length bytes - body_at)))

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

let install (node : Node.t) ~backend =
  (* a fresh log starts from an empty stream dictionary *)
  Codec.Dict.bump node.Node.wal_dict;
  let wal =
    Wal.create
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

let restore_sub (node : Node.t) (opts : Options.t) ~sub_id ~owner ~text =
  match node.Node.subs with
  | None -> ()
  | Some reg -> (
      match Parser.parse_query text with
      | Error _ -> ()
      | Ok query -> (
          match
            Sub.create ~pushdown:opts.Options.pushdown ~sub_id query
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

let restore_mirror (node : Node.t) ~sub_id ~host ~text ~accepted =
  match Parser.parse_query text with
  | Error _ -> ()
  | Ok query ->
      let m = Mirror.create ~sub_id ~host query in
      if accepted then Mirror.mark_accepted m;
      Hashtbl.replace node.Node.sub_mirrors sub_id m

let insert_rows (node : Node.t) rel rows =
  match Database.relation_opt node.Node.store rel with
  | None -> ()
  | Some relation -> List.iter (fun row -> ignore (Relation.insert_row relation row)) rows

let apply_snapshot (node : Node.t) (opts : Options.t) snap =
  List.iter (fun (rel, rows) -> insert_rows node rel rows) snap.sn_store;
  List.iter
    (fun ((rel, row), imports) ->
      List.iter (Lineage.record_import node.Node.lineage ~rel row) imports)
    snap.sn_lineage;
  List.iter
    (fun s -> restore_sub node opts ~sub_id:s.ss_id ~owner:s.ss_owner ~text:s.ss_query)
    snap.sn_subs;
  List.iter
    (fun m ->
      restore_mirror node ~sub_id:m.ms_id ~host:m.ms_host ~text:m.ms_query
        ~accepted:m.ms_accepted)
    snap.sn_mirrors

let apply_record (node : Node.t) (opts : Options.t) ~seq_floor record =
  match record with
  | Insert { rel; rows } -> insert_rows node rel rows
  | Import { rule; rel; hops; at; rows } -> (
      match Database.relation_opt node.Node.store rel with
      | None -> ()
      | Some relation ->
          let import = { Lineage.li_rule = rule; li_hops = hops; li_at = at } in
          List.iter
            (fun row ->
              if Relation.insert_row relation row then
                Lineage.record_import node.Node.lineage ~rel row import)
            rows)
  | Seq_reserve { upto } -> seq_floor := max !seq_floor upto
  | Sub_add { sub_id; owner; query_text } ->
      restore_sub node opts ~sub_id ~owner ~text:query_text
  | Sub_remove { sub_id } -> (
      match node.Node.subs with
      | None -> ()
      | Some reg -> ignore (Registry.unregister reg sub_id))
  | Mirror_add { sub_id; host; query_text } ->
      restore_mirror node ~sub_id ~host ~text:query_text ~accepted:false
  | Mirror_remove { sub_id } -> Hashtbl.remove node.Node.sub_mirrors sub_id

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
let recover (node : Node.t) (opts : Options.t) ~backend =
  let r = Wal.recover ~backend in
  let seq_floor = ref 0 in
  let had_snapshot = ref false in
  let seen = ref [] in
  (match r.Wal.rec_snapshot with
  | None -> ()
  | Some payload -> (
      match decode_snapshot payload with
      | snap ->
          had_snapshot := true;
          seq_floor := snap.sn_next_seq;
          seen := snap.sn_seen;
          apply_snapshot node opts snap
      | exception Codec.Malformed _ -> ()));
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
          apply_record node opts ~seq_floor record
      | exception Codec.Malformed _ -> ())
    r.Wal.rec_records;
  (* the recovered dedup table keeps retransmitted-but-already-
     integrated messages from being re-processed; messages integrated
     after the snapshot lose their dedup keys, so their retransmissions
     re-process idempotently (subsumption dedup at integration) *)
  if Options.reliable opts then
    node.Node.relay <- Some (Relay.create ~next_seq:!seq_floor ~seen:!seen ());
  node.Node.wal_reserved <- !seq_floor;
  let wal = install node ~backend in
  Wal.snapshot_now wal;
  Stats.note_recovery node.Node.stats ~records:!replayed
    ~replayed_bytes:r.Wal.rec_replayed_bytes;
  {
    rv_records = !replayed;
    rv_replayed_bytes = r.Wal.rec_replayed_bytes;
    rv_truncated = r.Wal.rec_truncated;
    rv_had_snapshot = !had_snapshot;
  }
