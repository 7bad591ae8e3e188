module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network
module Link_dict = Codb_net.Link_dict
module Config = Codb_cq.Config
module Tuple = Codb_relalg.Tuple
module Row = Codb_relalg.Row
module Relation = Codb_relalg.Relation
module Database = Codb_relalg.Database
module Eval = Codb_cq.Eval

(* Per-node durability bookkeeping: the backend outlives the node's
   crashes (it *is* the disk), and so does the counter record every
   incarnation of the node's WAL counts into. *)
type dur_node = {
  dn_backend : Codb_store.Backend.t;
  dn_counters : Codb_store.Wal.counters;
  mutable dn_recoveries : int;
  mutable dn_recovered_records : int;
  mutable dn_replayed_bytes : int;
  mutable dn_recovery_ms : float;
}

type t = {
  sys_net : Payload.t Network.t;
  sys_links : Link_dict.t;
      (* per-directed-link incremental string dictionaries, trained by
         the byte-accounting path: every message is sized as its link
         frame *)
  sys_nodes : (string, Node.t) Hashtbl.t;
  sys_runtimes : (string, Runtime.t) Hashtbl.t;
  sys_dur : (string, dur_node) Hashtbl.t;
  sys_restarts : int ref;
  mutable sys_config : Config.t;
  sys_opts : Options.t;
  mutable sys_superpeer : Superpeer.t option;
  mutable sys_trace : Trace.t option;
}

let opts sys = sys.sys_opts

let net sys = sys.sys_net

let link_dict_stats sys = Link_dict.stats sys.sys_links

let config sys = sys.sys_config

let node sys name =
  match Hashtbl.find_opt sys.sys_nodes name with
  | Some n -> n
  | None -> raise Not_found

let runtime sys name =
  match Hashtbl.find_opt sys.sys_runtimes name with
  | Some rt -> rt
  | None -> raise Not_found

let node_names sys =
  List.sort String.compare (Hashtbl.fold (fun name _ acc -> name :: acc) sys.sys_nodes [])

let trace_event sys ~direction ~src ~dst what =
  match sys.sys_trace with
  | None -> ()
  | Some trace ->
      Trace.record trace
        {
          Trace.ev_at = Network.now sys.sys_net;
          ev_direction = direction;
          ev_src = src;
          ev_dst = dst;
          ev_what = what;
        }

(* described only when a trace is on: an untraced run formats no
   message *)
let trace_message sys ~direction ~src ~dst payload =
  if Option.is_some sys.sys_trace then
    trace_event sys ~direction ~src ~dst (Payload.describe payload)

let make_runtime sys (node : Node.t) =
  let id = node.Node.node_id in
  let connect peer =
    if Network.has_peer sys.sys_net peer then
      Network.connect sys.sys_net ~latency:sys.sys_opts.Options.latency
        ~byte_cost:sys.sys_opts.Options.byte_cost id peer
  in
  let send ~dst payload =
    let delivered = Network.send sys.sys_net ~src:id ~dst payload in
    if delivered then
      trace_message sys ~direction:Trace.Sent ~src:id ~dst payload;
    delivered
  in
  {
    Runtime.node;
    opts = sys.sys_opts;
    send;
    now = (fun () -> Network.now sys.sys_net);
    schedule = (fun ~delay action -> Network.schedule sys.sys_net ~delay action);
    connect;
    disconnect = (fun peer -> Network.disconnect sys.sys_net id peer);
    neighbours = (fun () -> Network.neighbours sys.sys_net id);
  }

let handler sys rt msg =
  trace_message sys ~direction:Trace.Delivered ~src:msg.Codb_net.Message.src
    ~dst:msg.Codb_net.Message.dst msg.Codb_net.Message.payload;
  Dbm.handle rt msg

let install_node sys decl ~outgoing ~incoming =
  let name = decl.Config.node_name in
  if Hashtbl.mem sys.sys_nodes name then
    invalid_arg (Printf.sprintf "System: duplicate node %s" name);
  let node = Node.create decl in
  Node.configure_subs node sys.sys_opts;
  if Options.reliable sys.sys_opts then node.Node.relay <- Some (Relay.create ());
  Node.set_rules node ~outgoing ~incoming;
  Network.add_peer sys.sys_net node.Node.node_id;
  (match sys.sys_opts.Options.durability with
  | Options.Dur_wal ->
      let backend =
        match sys.sys_opts.Options.wal_dir with
        | Some dir ->
            Codb_store.Backend.file ~fsync:sys.sys_opts.Options.fsync ~dir
              ~node:name ()
        | None -> Codb_store.Backend.memory ()
      in
      let counters = Codb_store.Wal.fresh_counters () in
      Hashtbl.replace sys.sys_dur name
        {
          dn_backend = backend;
          dn_counters = counters;
          dn_recoveries = 0;
          dn_recovered_records = 0;
          dn_replayed_bytes = 0;
          dn_recovery_ms = 0.;
        };
      ignore (Durable.install ~counters node ~backend : Codb_store.Wal.t)
  | Options.Dur_volatile -> ());
  let rt = make_runtime sys node in
  Network.set_handler sys.sys_net node.Node.node_id (handler sys rt);
  Hashtbl.replace sys.sys_nodes name node;
  Hashtbl.replace sys.sys_runtimes name rt;
  node

let connect_acquaintances sys =
  let connect_rule (r : Config.rule_decl) =
    let a = Peer_id.of_string r.Config.importer
    and b = Peer_id.of_string r.Config.source in
    if Network.has_peer sys.sys_net a && Network.has_peer sys.sys_net b then
      Network.connect sys.sys_net ~latency:sys.sys_opts.Options.latency
        ~byte_cost:sys.sys_opts.Options.byte_cost a b
  in
  List.iter connect_rule sys.sys_config.Config.rules

(* A crash: the handler disappears (in-flight messages to the node
   drop at delivery time) and every pipe closes.  The crash is honest:
   RAM is gone — protocol state, store, lineage, transport — and only
   the node's declaration (and, under [Dur_wal], its backend bytes)
   survive to the restart. *)
let crash_node sys name =
  let n = node sys name in
  let id = n.Node.node_id in
  (match Network.fault sys.sys_net with
  | Some fault -> Codb_net.Fault.note_crash fault
  | None -> ());
  Network.clear_handler sys.sys_net id;
  List.iter (fun peer -> Network.disconnect sys.sys_net id peer)
    (Network.neighbours sys.sys_net id);
  n.Node.wal <- None;
  Node.reset_store n;
  (* the relay goes after [reset_volatile] has abandoned it, so the
     dead incarnation's retransmission timers find their entries
     settled and stop *)
  Node.reset_volatile n;
  n.Node.relay <- None;
  trace_event sys ~direction:Trace.Delivered ~src:id ~dst:id "crash"

(* A restart: volatile state is (re-)cleared, the handler re-registers
   and the acquaintance pipes (plus the super-peer pipe, if one is
   tracked) reopen.

   What comes back depends on [Options.durability].  [Dur_volatile]:
   clear-and-refetch — the store restarts from the node's declaration,
   the transport restarts in a fresh sequence epoch (so recycled
   sequence numbers are impossible), and a catch-up global update
   re-imports everything the rules cover.
   [Dur_wal]: true recovery — snapshot plus log tail rebuild the
   store, lineage, transport reservation and dedup keys and
   subscription state; no catch-up update is issued, the reliable
   transport's retransmissions deliver the in-flight tail. *)
let restart_node sys name =
  let n = node sys name in
  let id = n.Node.node_id in
  (match Network.fault sys.sys_net with
  | Some fault -> Codb_net.Fault.note_restart fault
  | None -> ());
  Node.reset_volatile n;
  Node.configure_subs n sys.sys_opts;
  Node.reset_store n;
  (match sys.sys_opts.Options.durability with
  | Options.Dur_volatile ->
      incr sys.sys_restarts;
      if Options.reliable sys.sys_opts then
        n.Node.relay <-
          Some (Relay.create ~next_seq:(!(sys.sys_restarts) * 1_000_000) ())
  | Options.Dur_wal ->
      (match Hashtbl.find_opt sys.sys_dur name with
      | None -> ()
      | Some dn ->
          let t0 = Sys.time () in
          let rv =
            Durable.recover ~counters:dn.dn_counters n sys.sys_opts
              ~backend:dn.dn_backend
          in
          dn.dn_recovery_ms <-
            dn.dn_recovery_ms +. ((Sys.time () -. t0) *. 1000.);
          dn.dn_recoveries <- dn.dn_recoveries + 1;
          dn.dn_recovered_records <-
            dn.dn_recovered_records + rv.Durable.rv_records;
          dn.dn_replayed_bytes <-
            dn.dn_replayed_bytes + rv.Durable.rv_replayed_bytes));
  n.Node.track_refetch <- true;
  let rt = runtime sys name in
  Network.set_handler sys.sys_net id (handler sys rt);
  List.iter (fun peer -> rt.Runtime.connect peer) n.Node.acquaintances;
  (match sys.sys_superpeer with
  | Some sp ->
      Network.connect sys.sys_net ~latency:sys.sys_opts.Options.latency
        ~byte_cost:sys.sys_opts.Options.byte_cost id (Superpeer.id sp)
  | None -> ());
  (* the restarted node's registry lost (or, under [Dur_wal],
     recovered) its entries: every peer holding a mirror against it
     empties the mirror and re-registers (deterministically, in
     node-name then sub-id order); the registration snapshot sent in
     reply refills it *)
  List.iter
    (fun name' ->
      if not (String.equal name' name) then
        Sub_engine.rearm_towards (runtime sys name') ~host:id)
    (node_names sys);
  (match sys.sys_opts.Options.durability with
  | Options.Dur_volatile ->
      (* catch-up: a fresh global update re-imports, through the
         normal rule machinery, everything the crash wiped *)
      Update.initiate rt (Ids.update_id id (Node.fresh_serial n))
  | Options.Dur_wal ->
      (* recovered mirrors empty and re-register with their hosts
         (the host's registration snapshot refills them);
         recovered hosted subscriptions re-diff against the recovered
         store and push what the registry's answer sets are missing *)
      List.iter
        (fun name' ->
          if not (String.equal name' name) then
            Sub_engine.rearm_towards rt ~host:(node sys name').Node.node_id)
        (node_names sys);
      Sub_engine.refresh_all rt ~tag:"recover");
  trace_event sys ~direction:Trace.Delivered ~src:id ~dst:id "restart"

(* Wire the options' fault knobs into the simulator: the drop/dup/
   jitter plan plus scheduled link flaps, and the crash/restart
   schedule on top (unknown node names are skipped when they fire, so
   plans survive topology changes). *)
let install_faults sys =
  let opts = sys.sys_opts in
  if Options.faults_enabled opts then begin
    let flaps =
      List.map
        (fun (a, b, down, up) ->
          {
            Codb_net.Fault.fl_a = Peer_id.of_string a;
            fl_b = Peer_id.of_string b;
            fl_down_at = down;
            fl_up_at = up;
          })
        opts.Options.flap_plan
    in
    let plan =
      {
        Codb_net.Fault.seed = opts.Options.fault_seed;
        drop_prob = opts.Options.drop_prob;
        dup_prob = opts.Options.dup_prob;
        jitter = opts.Options.jitter;
        drop_budget = opts.Options.drop_budget;
        flaps;
      }
    in
    ignore (Network.install_fault sys.sys_net plan);
    List.iter
      (fun (name, at, restart) ->
        Network.schedule sys.sys_net ~delay:at (fun () ->
            if Hashtbl.mem sys.sys_nodes name then crash_node sys name);
        match restart with
        | Some at' ->
            Network.schedule sys.sys_net ~delay:at' (fun () ->
                if Hashtbl.mem sys.sys_nodes name then restart_node sys name)
        | None -> ())
      opts.Options.crash_plan
  end

let build ?(opts = Options.default) cfg =
  match Options.validate opts with
  | Error errors -> Error errors
  | Ok () -> (
  match Config.validate cfg with
  | Error errors -> Error errors
  | Ok () ->
      if Config.node cfg Superpeer.peer_name <> None then
        Error [ Printf.sprintf "node name %s is reserved" Superpeer.peer_name ]
      else
      match Option.map Codb_store.Backend.prepare_dir opts.Options.wal_dir with
      | Some (Error why) -> Error [ "wal_dir: " ^ why ]
      | Some (Ok ()) | None -> begin
        let links = Link_dict.create () in
        let size_of ~src ~dst p =
          Payload.encoded_size ~link:(Link_dict.sender links ~src ~dst) p
        in
        let net =
          Network.create ~default_latency:opts.Options.latency
            ~default_byte_cost:opts.Options.byte_cost ~size_of ()
        in
        let nodes = Hashtbl.create 32 in
        (* any pipe transition (close, reopen, flap) or send against a
           closed pipe desyncs the link: new epoch both ways.  It may
           also have lost data between the two peers, so neither end's
           watermarks towards the other stand. *)
        let void_watermarks node peer =
          match Hashtbl.find_opt nodes (Peer_id.to_string node) with
          | Some n -> Watermark.clear_peer n.Node.watermarks peer
          | None -> ()
        in
        Network.set_link_watcher net (fun a b ->
            Link_dict.bump_link links a b;
            void_watermarks a b;
            void_watermarks b a);
        let sys =
          {
            sys_net = net;
            sys_links = links;
            sys_nodes = nodes;
            sys_runtimes = Hashtbl.create 32;
            sys_dur = Hashtbl.create 32;
            sys_restarts = ref 0;
            sys_config = cfg;
            sys_opts = opts;
            sys_superpeer = None;
            sys_trace = None;
          }
        in
        (* each node's outgoing (importer) and incoming (source) rules,
           grouped in one pass over the rule list, in config order *)
        let importing = Hashtbl.create 32 and sourced = Hashtbl.create 32 in
        let group tbl name r =
          Hashtbl.replace tbl name (r :: Option.value ~default:[] (Hashtbl.find_opt tbl name))
        in
        List.iter
          (fun (r : Config.rule_decl) ->
            group importing r.Config.importer r;
            group sourced r.Config.source r)
          (List.rev cfg.Config.rules);
        let rules_of tbl name = Option.value ~default:[] (Hashtbl.find_opt tbl name) in
        List.iter
          (fun decl ->
            let name = decl.Config.node_name in
            ignore
              (install_node sys decl ~outgoing:(rules_of importing name)
                 ~incoming:(rules_of sourced name)))
          cfg.Config.nodes;
        connect_acquaintances sys;
        install_faults sys;
        Ok sys
      end)

let build_exn ?opts cfg =
  match build ?opts cfg with
  | Ok sys -> sys
  | Error errors -> invalid_arg ("System.build: " ^ String.concat "; " errors)

(* A safety bound, generous enough for every workload that converges.
   Some fix-points diverge: the dedup ablations, and rule sets whose
   chase does not terminate (a marked null that travels a cycle of
   existential rules mints a fresh null on every lap). *)
let default_max_events = 2_000_000

let run ?(max_events = default_max_events) sys = Network.run ~max_events sys.sys_net

let quiescent sys = Network.idle sys.sys_net

let now sys = Network.now sys.sys_net

let start_update sys ~initiator =
  let n = node sys initiator in
  let uid = Ids.update_id n.Node.node_id (Node.fresh_serial n) in
  Update.initiate (runtime sys initiator) uid;
  uid

let run_update sys ~initiator =
  let uid = start_update sys ~initiator in
  let _ = run sys in
  uid

let start_scoped_update sys ~at ~rels =
  let n = node sys at in
  let uid = Ids.update_id n.Node.node_id (Node.fresh_serial n) in
  Update.initiate_scoped (runtime sys at) uid ~rels;
  uid

let run_scoped_update sys ~at query =
  let uid = start_scoped_update sys ~at ~rels:(Codb_cq.Query.body_relations query) in
  let _ = run sys in
  uid

type query_outcome = {
  qo_id : Ids.query_id;
  qo_answers : Tuple.t list;
  qo_certain : Tuple.t list;
  qo_started : float;
  qo_finished : float;
  qo_data_msgs : int;
  qo_bytes : int;
  qo_complete : bool;
}

let run_query ?on_partial sys ~at query =
  let n = node sys at in
  let qid = Ids.query_id n.Node.node_id (Node.fresh_serial n) in
  let on_answer = Option.map (fun f rows -> f (List.map Row.to_tuple rows)) on_partial in
  let root_ref = Query_engine.start ?on_answer (runtime sys at) qid query in
  let _ = run sys in
  match Query_engine.result n root_ref with
  | None -> failwith "System.run_query: the query diffusion did not complete"
  | Some rows ->
      let answers = List.map Row.to_tuple rows in
      let qs =
        match Stats.find_query n.Node.stats qid with
        | Some qs -> qs
        (* unreachable: [Query_engine.start] creates the query's stats
           entry before any result, and stats entries are never removed *)
        | None -> assert false
      in
      {
        qo_id = qid;
        qo_answers = answers;
        qo_certain = Eval.certain answers;
        qo_started = qs.Stats.qs_started;
        qo_finished = Option.value ~default:qs.Stats.qs_started qs.Stats.qs_finished;
        qo_data_msgs = qs.Stats.qs_data_msgs;
        qo_bytes = qs.Stats.qs_bytes_in;
        qo_complete = qs.Stats.qs_complete;
      }

let local_answers sys ~at query =
  List.map Row.to_tuple (Wrapper.user_answers (node sys at).Node.store query)

let superpeer sys =
  match sys.sys_superpeer with
  | Some sp -> sp
  | None ->
      let peers =
        List.map (fun name -> (node sys name).Node.node_id) (node_names sys)
      in
      let sp = Superpeer.create ~net:sys.sys_net ~peers in
      sys.sys_superpeer <- Some sp;
      sp

let broadcast_rules sys cfg =
  sys.sys_config <- cfg;
  let _version = Superpeer.broadcast_rules (superpeer sys) cfg in
  let _ = run sys in
  ()

let collect_stats sys =
  let sp = superpeer sys in
  Superpeer.request_stats sp;
  let _ = run sys in
  Superpeer.collected sp

let snapshots sys =
  let snap name =
    let n = node sys name in
    Stats.snapshot ~store_tuples:(Database.cardinal n.Node.store) n.Node.stats
  in
  List.map snap (node_names sys)

let discover sys ~at ~ttl =
  let rt = runtime sys at in
  let _probe = Discovery.start rt ~ttl in
  let _ = run sys in
  Peer_id.Set.elements (node sys at).Node.known_peers

let add_node sys decl =
  sys.sys_config <- { sys.sys_config with Config.nodes = sys.sys_config.Config.nodes @ [ decl ] };
  let name = decl.Config.node_name in
  let node =
    install_node sys decl
      ~outgoing:(Config.rules_importing_at sys.sys_config name)
      ~incoming:(Config.rules_sourced_at sys.sys_config name)
  in
  (match sys.sys_superpeer with
  | Some sp -> Superpeer.track sp node.Node.node_id
  | None -> ());
  connect_acquaintances sys

let enable_trace ?capacity sys =
  match sys.sys_trace with
  | Some trace -> trace
  | None ->
      let trace = Trace.create ?capacity () in
      sys.sys_trace <- Some trace;
      trace

let trace sys = sys.sys_trace

let export_stores sys =
  List.map
    (fun name -> (name, Codb_relalg.Csv.dump_database (node sys name).Node.store))
    (node_names sys)

let import_stores sys dumps =
  (* parse every dump before touching any store, so malformed data
     leaves the whole network as it was *)
  let parse (name, text) =
    let n = node sys name in
    match Codb_relalg.Csv.parse_database n.Node.store text with
    | exception Codb_relalg.Csv.Parse_error { line; message } ->
        Error (Printf.sprintf "node %s, line %d: %s" name line message)
    | rows -> Ok (name, n, rows)
  in
  let import total (name, n, rows) =
    let added = Codb_relalg.Csv.insert_rows n.Node.store rows in
    if added > 0 then begin
      Durable.note_bulk_load n;
      (* bulk loads bypass the per-tuple delta feed: re-seed any
         standing queries hosted here by a from-scratch diff *)
      Sub_engine.refresh_all (runtime sys name) ~tag:"import"
    end;
    total + added
  in
  let parse_all acc dump =
    Result.bind acc (fun parsed -> Result.map (fun p -> p :: parsed) (parse dump))
  in
  Result.map
    (fun parsed -> List.fold_left import 0 (List.rev parsed))
    (List.fold_left parse_all (Ok []) dumps)

let insert_fact sys ~at ~rel tuple =
  let n = node sys at in
  let relation = Database.relation n.Node.store rel in
  (* the API boundary: the fact is packed once, and only the row goes
     further *)
  let row = Row.of_tuple tuple in
  let inserted = Relation.insert_row relation row in
  if inserted then begin
    (* the commit point: the write is in the store and hits the WAL
       before any subscription delta derived from it leaves the node *)
    Durable.log_insert n ~rel [ row ];
    let upto = Relation.cardinal relation in
    Sub_engine.on_store_delta (runtime sys at) ~rel ~since:(upto - 1) ~upto
      ~tag:(fun () -> "local-write")
  end;
  inserted

let subscribe sys ~at ?on_delta query =
  Sub_engine.register_local (runtime sys at) ?on_delta query

let unsubscribe sys ~at sub_id = Sub_engine.unregister_local (runtime sys at) sub_id

let subscribe_remote sys ~subscriber ~host ?on_delta query =
  Sub_engine.subscribe_remote (runtime sys subscriber)
    ~host:(node sys host).Node.node_id ?on_delta query

let unsubscribe_remote sys ~subscriber sub_id =
  Sub_engine.unsubscribe_remote (runtime sys subscriber) sub_id

let subscription_answers sys ~at sub_id =
  let n = node sys at in
  let boxed = List.map Row.to_tuple in
  match n.Node.subs with
  | Some reg when Codb_sub.Registry.find reg sub_id <> None ->
      Option.map
        (fun e -> boxed (Codb_sub.Subscription.answers e.Codb_sub.Registry.e_sub))
        (Codb_sub.Registry.find reg sub_id)
  | _ ->
      Option.map
        (fun m -> boxed (Codb_sub.Mirror.answers m))
        (Hashtbl.find_opt n.Node.sub_mirrors sub_id)

let mirror sys ~at sub_id = Hashtbl.find_opt (node sys at).Node.sub_mirrors sub_id

let total_tuples sys =
  List.fold_left
    (fun acc name -> acc + Database.cardinal (node sys name).Node.store)
    0 (node_names sys)

type durability_report = {
  dr_wal_records : int;
  dr_wal_bytes : int;
  dr_snapshots : int;
  dr_snapshot_bytes : int;
  dr_recoveries : int;
  dr_recovered_records : int;
  dr_replayed_bytes : int;
  dr_recovery_ms : float;
}

(* One counter record per node, shared by all its WAL incarnations. *)
let durability_report sys =
  Hashtbl.fold
    (fun _ dn acc ->
      let c = dn.dn_counters in
      {
        dr_wal_records = acc.dr_wal_records + c.Codb_store.Wal.records_written;
        dr_wal_bytes = acc.dr_wal_bytes + c.Codb_store.Wal.bytes_written;
        dr_snapshots = acc.dr_snapshots + c.Codb_store.Wal.snapshots_taken;
        dr_snapshot_bytes = acc.dr_snapshot_bytes + c.Codb_store.Wal.snapshot_bytes;
        dr_recoveries = acc.dr_recoveries + dn.dn_recoveries;
        dr_recovered_records =
          acc.dr_recovered_records + dn.dn_recovered_records;
        dr_replayed_bytes = acc.dr_replayed_bytes + dn.dn_replayed_bytes;
        dr_recovery_ms = acc.dr_recovery_ms +. dn.dn_recovery_ms;
      })
    sys.sys_dur
    {
      dr_wal_records = 0;
      dr_wal_bytes = 0;
      dr_snapshots = 0;
      dr_snapshot_bytes = 0;
      dr_recoveries = 0;
      dr_recovered_records = 0;
      dr_replayed_bytes = 0;
      dr_recovery_ms = 0.;
    }

let store_digest sys name = Database.digest (node sys name).Node.store

let store_digests sys =
  List.map (fun name -> (name, store_digest sys name)) (node_names sys)
