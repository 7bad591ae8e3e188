module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Database = Codb_relalg.Database
module Eval = Codb_cq.Eval

type t = {
  node_id : Peer_id.t;
  mutable decl : Config.node_decl;
  mutable store : Database.t;
  mutable outgoing : Config.rule_decl list;
  mutable incoming : Config.rule_decl list;
  mutable acquaintances : Peer_id.t list;
  stats : Stats.t;
  lineage : Lineage.t;
  watermarks : Watermark.t;
  updates : Update_state.t option Ids.Update_tbl.t;
  query_instances : (string, Query_state.t) Hashtbl.t;
  sub_refs : (string, string) Hashtbl.t;
  mutable serial : int;
  mutable rules_version : int;
  mutable known_peers : Peer_id.Set.t;
  seen_probes : (string, unit) Hashtbl.t;
  mutable cache : Codb_cache.Qcache.t option;
  mutable relay : Relay.t option;
  mutable subs : Codb_sub.Registry.t option;
  sub_mirrors : (string, Codb_sub.Mirror.t) Hashtbl.t;
  mutable wal : Codb_store.Wal.t option;
  wal_dict : Codb_net.Codec.Dict.sender;
  mutable wal_reserved : int;
  mutable track_refetch : bool;
}

let create decl =
  let store = Database.create decl.Config.relations in
  List.iter
    (fun (rel, tuple) -> ignore (Database.insert store rel tuple))
    decl.Config.facts;
  let node_id = Peer_id.of_string decl.Config.node_name in
  {
    node_id;
    decl;
    store;
    outgoing = [];
    incoming = [];
    acquaintances = [];
    stats = Stats.create node_id;
    lineage = Lineage.create ();
    watermarks = Watermark.create ();
    updates = Ids.Update_tbl.create 8;
    query_instances = Hashtbl.create 8;
    sub_refs = Hashtbl.create 8;
    serial = 0;
    rules_version = 0;
    known_peers = Peer_id.Set.empty;
    seen_probes = Hashtbl.create 8;
    cache = None;
    relay = None;
    subs = None;
    sub_mirrors = Hashtbl.create 4;
    wal = None;
    wal_dict = Codb_net.Codec.Dict.sender ~size:1 ();
    wal_reserved = 0;
    track_refetch = false;
  }

(* A crash destroys the store too: rebuild it from the node's
   declaration, exactly as [create] does, and forget the lineage of the
   tuples that died with it. *)
let reset_store node =
  let store = Database.create node.decl.Config.relations in
  List.iter
    (fun (rel, tuple) -> ignore (Database.insert store rel tuple))
    node.decl.Config.facts;
  node.store <- store;
  Lineage.clear node.lineage;
  (* the marks count rows of the store that is gone *)
  Watermark.clear node.watermarks

let fresh_serial node =
  node.serial <- node.serial + 1;
  node.serial

let fresh_ref node =
  String.concat "" [ Peer_id.to_string node.node_id; "/"; string_of_int (fresh_serial node) ]

(* Bounds of the per-node query cache: cached queries and answer
   bytes. *)
let cache_capacity = 128
let cache_max_bytes = 4 * 1024 * 1024

let configure_cache node (opts : Options.t) =
  let create containment =
    Some
      (Codb_cache.Qcache.create ~max_entries:cache_capacity ~max_bytes:cache_max_bytes
         ~containment ())
  in
  node.cache <-
    (match opts.Options.query_cache with
    | Options.Cache_off -> None
    | Options.Cache_exact -> create false
    | Options.Cache_containment -> create true)

let max_subscriptions = 64

let configure_subs node (opts : Options.t) =
  node.subs <-
    (if opts.Options.subscriptions then
       Some (Codb_sub.Registry.create ~limit:max_subscriptions)
     else None)

let mirrors_sorted node =
  let all = Hashtbl.fold (fun id m acc -> (id, m) :: acc) node.sub_mirrors [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let set_rules node ~outgoing ~incoming =
  node.outgoing <- outgoing;
  node.incoming <- incoming;
  (* the far end of every rule, each peer once, sorted *)
  let self = Peer_id.to_string node.node_id in
  let add acc (r : Config.rule_decl) =
    let far =
      if String.equal r.Config.importer self then r.Config.source else r.Config.importer
    in
    let peer = Peer_id.of_string far in
    if List.mem peer acc then acc else peer :: acc
  in
  let peers = List.fold_left add (List.fold_left add [] outgoing) incoming in
  node.acquaintances <- List.sort Peer_id.compare peers;
  Watermark.clear node.watermarks;
  (* acquaintances and rule bodies changed: cached answers may rest on
     rules that no longer exist *)
  Option.iter Codb_cache.Qcache.clear node.cache

let check_query node query =
  let arity_mismatch (atom : Codb_cq.Atom.t) =
    let have =
      Codb_relalg.(Schema.arity (Relation.schema (Database.relation node.store atom.rel)))
    in
    let uses = Codb_cq.Atom.arity atom in
    if have = uses then None
    else
      Some
        (Printf.sprintf "%s has %d column%s, the query uses %d" atom.rel have
           (if have = 1 then "" else "s")
           uses)
  in
  match
    List.filter
      (fun rel -> not (Database.has_relation node.store rel))
      (Codb_cq.Query.body_relations query)
  with
  | [] -> (
      match List.find_map arity_mismatch query.Codb_cq.Query.body with
      | Some reason -> Error reason
      | None -> Codb_cq.Query.well_formed ~allow_existential_head:false query)
  | missing ->
      Error
        (Printf.sprintf "unknown relation%s: %s"
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing))

let cache_snapshot node = Option.map Codb_cache.Qcache.counters node.cache

let note_local_write node =
  Option.iter
    (fun cache -> ignore (Codb_cache.Qcache.note_update cache [ node.node_id ]))
    node.cache

let find_rule rules id = List.find_opt (fun r -> String.equal r.Config.rule_id id) rules

let rule_out node id = find_rule node.outgoing id

let rule_in node id = find_rule node.incoming id

(* The table holds [Some st], built once when the state is added, so a
   hit returns it without allocating ([find_opt] would box a fresh
   [Some] on every message). *)
let update_state node update_id =
  match Ids.Update_tbl.find node.updates update_id with
  | found -> found
  | exception Not_found -> None

let add_update_state node (st : Update_state.t) =
  Ids.Update_tbl.replace node.updates st.Update_state.ust_update (Some st)

let explain node ~rel tuple = Lineage.origin_of ~store:node.store node.lineage ~rel tuple

(* A crash loses everything held in memory by the protocol layer:
   in-flight update and query instances, diffusion bookkeeping, probe
   dedup, cached answers.  The store, lineage and transport go too, but
   not here: {!System.crash_node} resets them with [reset_store] and by
   dropping the relay, and the restart decides what comes back. *)
let reset_volatile node =
  Ids.Update_tbl.reset node.updates;
  Watermark.clear node.watermarks;
  Hashtbl.reset node.query_instances;
  Hashtbl.reset node.sub_refs;
  Hashtbl.reset node.seen_probes;
  Option.iter Relay.abandon node.relay;
  Option.iter Codb_cache.Qcache.clear node.cache;
  (* subscription state is volatile too: hosted registrations and the
     mirrors of this node's own remote subscriptions die with the
     process.  Subscribers re-arm against the restarted host
     (System.restart). *)
  let torn =
    (match node.subs with Some reg -> Codb_sub.Registry.clear reg | None -> 0)
    + Hashtbl.length node.sub_mirrors
  in
  if torn > 0 then begin
    let sb = Stats.sub node.stats in
    sb.Stats.sb_torn_down <- sb.Stats.sb_torn_down + torn
  end;
  node.subs <- None;
  Hashtbl.reset node.sub_mirrors

let may_export node =
  node.decl.Config.constraints = []
  ||
  let source = Eval.of_database node.store in
  let violated q = Eval.answers source q <> [] in
  let consistent = not (List.exists violated node.decl.Config.constraints) in
  Stats.set_inconsistent node.stats (not consistent);
  consistent
