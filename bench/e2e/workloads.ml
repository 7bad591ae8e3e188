(* The four end-to-end workloads.  Each is a network configuration,
   the options its semantics needs (every other field stays at
   [Options.default], so a later change of a default is measured
   rather than bypassed), and a fixed list of operations drawn from
   the seed.  A benchmark pass builds a fresh system from the
   configuration and replays the operations; passes of one run are
   therefore identical, and their exact counters must agree. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Tuple = Codb_relalg.Tuple
module Rng = Codb_workload.Rng
module Datagen = Codb_workload.Datagen
module Glavgen = Codb_workload.Glavgen

type step =
  | Insert of { at : string; rel : string; tuple : Tuple.t }
  | Update of { crash : string list; restart_after : int }
      (** a global update from [n0]; the [crash] peers go down just
          before it starts and come back after [restart_after]
          simulator events *)
  | Query of { at : string; query : Query.t }

(* One timed sample: a bulk update, an update round (its inserts and
   its update), a single query, or a mixed round. *)
type op = { bulk : bool; steps : step list }

type t = {
  name : string;
  config : Config.t;
  opts : Options.t;
  standing : (string * string * Query.t) list;
      (** remote standing queries (subscriber, host, query) registered
          during set-up *)
  ops : op list;
}

type size = {
  tree_peers : int;
  mesh_peers : int;
  tree_rounds : int;
  tree_inserts : int;  (** facts per update-tree round *)
  mesh_rounds : int;
  mesh_inserts : int;  (** facts per update-mesh round *)
  storm_queries : int;
  chaos_rounds : int;
  chaos_inserts : int;
  chaos_queries : int;  (** queries per mixed-chaos round *)
  restart_after : int;
}

(* Sized so that one pass takes a few seconds on a 2-core host and a
   run of the committed length measures several passes. *)
let full =
  {
    tree_peers = 1023;
    mesh_peers = 128;
    tree_rounds = 6;
    tree_inserts = 50;
    mesh_rounds = 10;
    mesh_inserts = 20;
    storm_queries = 250;
    chaos_rounds = 8;
    chaos_inserts = 20;
    chaos_queries = 25;
    restart_after = 3000;
  }

(* Every gate, a few operations each: the harness's own test. *)
let toy =
  {
    tree_peers = 15;
    mesh_peers = 8;
    tree_rounds = 2;
    tree_inserts = 5;
    mesh_rounds = 2;
    mesh_inserts = 4;
    storm_queries = 12;
    chaos_rounds = 3;
    chaos_inserts = 4;
    chaos_queries = 4;
    restart_after = 40;
  }

let parse_query text =
  match Codb_cq.Parser.parse_query text with
  | Ok q -> q
  | Error e -> invalid_arg (Printf.sprintf "bad query %S: %s" text e)

let templates =
  List.map parse_query
    [
      "q(v) <- data(3, v)";
      "q(k, v) <- data(k, v), k <= 5";
      "q(k) <- data(k, v)";
      "q(k, v, w) <- data(k, v), data(k, w), k <= 2";
    ]

let tree_profile = { Datagen.domain_size = 50; skew = 0.0 }

(* The tree's rules are part of the workload, the same for every
   seed: data accumulates towards the root, so whether the root's two
   rules filter or project decides half the run's traffic, and a
   seeded rule set let one draw allocate 1.5x another.  The seed draws
   the stored facts and the operations. *)
let tree_rules = 7

let tree_config ~seed size =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = 50;
      profile = tree_profile;
      existential_frac = 0.1;
      comparison_frac = 0.2;
    }
  in
  let generate seed = Topology.generate ~params ~seed Topology.Binary_tree ~n:size.tree_peers in
  let rules = generate tree_rules and data = generate seed in
  { rules with Config.nodes = data.Config.nodes }

(* Query cost on a tree grows with the asked peer's subtree, so a
   plain uniform draw lets one root query swing a run by seconds.
   Each depth instead gets its expected share of the queries (largest
   remainder), and its peers are picked at equal spacing from a seeded
   offset, so that every part of the tree is asked alike and every
   peer of a depth is equally likely to be asked. *)
let stratified_peers rng ~peers ~count =
  (* depth d holds the peers numbered [2^d - 1, 2^(d+1) - 1) *)
  let depths =
    Array.of_list
      (List.filter_map
         (fun d ->
           let lo = (1 lsl d) - 1 in
           if lo < peers then Some (lo, min peers ((2 * lo) + 1) - lo) else None)
         (List.init 62 Fun.id))
  in
  let quota = Array.map (fun (_, width) -> count * width / peers) depths in
  let spare = count - Array.fold_left ( + ) 0 quota in
  let by_remainder =
    List.sort
      (fun i j ->
        let rem k = count * snd depths.(k) mod peers in
        match Int.compare (rem j) (rem i) with 0 -> Int.compare i j | c -> c)
      (List.init (Array.length depths) Fun.id)
  in
  List.iteri (fun r i -> if r < spare then quota.(i) <- quota.(i) + 1) by_remainder;
  let picks =
    List.concat
      (List.mapi
         (fun i (lo, width) ->
           let offset = Rng.int rng width in
           List.init quota.(i) (fun k -> lo + ((offset + (k * width / quota.(i))) mod width)))
         (Array.to_list depths))
  in
  List.map Topology.node_name (Rng.shuffle rng picks)

let queries rng ~peers ~count =
  List.mapi
    (fun i at -> Query { at; query = List.nth templates (i mod List.length templates) })
    (stratified_peers rng ~peers ~count)

let data_insert rng ~at =
  Insert
    { at; rel = "data"; tuple = Datagen.tuple rng tree_profile Topology.data_relation }

let plain_update = Update { crash = []; restart_after = 0 }

let bulk = { bulk = true; steps = [ plain_update ] }

let update_tree ~seed size =
  let rng = Rng.make ~seed:(seed + 1) in
  let first_leaf = size.tree_peers / 2 in
  let leaf () = Topology.node_name (Rng.int_range rng first_leaf (size.tree_peers - 1)) in
  let round () =
    {
      bulk = false;
      steps = List.init size.tree_inserts (fun _ -> data_insert rng ~at:(leaf ())) @ [ plain_update ];
    }
  in
  {
    name = "update-tree";
    config = tree_config ~seed size;
    opts = Options.default;
    standing = [];
    ops = bulk :: List.init size.tree_rounds (fun _ -> round ());
  }

(* The mesh itself (shape, rule kinds and stored facts) is part of
   the workload, the same for every seed: on 128 peers one random
   digraph saturates in 1.2 s and the next in 14 s, and on one digraph
   the facts alone move delivered messages by a quarter, so a seeded
   mesh would let the seed, not the code, decide the numbers.
   Dataset 5 (3.5 s) lies inside that range.  The seed draws the round
   inserts. *)
let mesh_dataset = 5

let update_mesh ~seed size =
  let n = size.mesh_peers in
  let edges =
    let rng = Rng.make ~seed:mesh_dataset in
    let random = Topology.edges ~rng (Topology.Random_graph (1.5 /. float_of_int (n - 1))) ~n in
    random @ List.filter (fun e -> not (List.mem e random)) (Topology.edges Topology.Chain ~n)
  in
  let config = Glavgen.generate ~seed:mesh_dataset ~edges ~n () in
  let rng = Rng.make ~seed:(seed + 1) in
  let profile = Glavgen.default_spec.Glavgen.profile in
  let fact0 = List.hd Glavgen.relations in
  let round () =
    {
      bulk = false;
      steps =
        List.init size.mesh_inserts (fun _ ->
            Insert
              {
                at = Topology.node_name (Rng.int rng n);
                rel = "fact0";
                tuple = Datagen.tuple rng profile fact0;
              })
        @ [ plain_update ];
    }
  in
  {
    name = "update-mesh";
    config;
    opts = Options.default;
    standing = [];
    ops = bulk :: List.init size.mesh_rounds (fun _ -> round ());
  }

let query_storm ~seed size =
  let rng = Rng.make ~seed:(seed + 1) in
  {
    name = "query-storm";
    config = tree_config ~seed size;
    opts = Options.default;
    standing = [];
    ops =
      List.map
        (fun step -> { bulk = false; steps = [ step ] })
        (queries rng ~peers:size.tree_peers ~count:size.storm_queries);
  }

let chaos_opts ~seed =
  {
    Options.default with
    Options.subscriptions = true;
    ack_timeout = 0.05;
    max_retries = 6;
    fault_seed = seed;
    drop_prob = 0.02;
    drop_budget = 2000;
    dup_prob = 0.01;
    jitter = 0.001;
    durability = Options.Dur_wal;
  }

let mixed_chaos ~seed size =
  let rng = Rng.make ~seed:(seed + 1) in
  let peer () = Topology.node_name (Rng.int rng size.tree_peers) in
  (* two crash rounds, at a quarter and three fifths of the run (5 and
     12 of 20 rounds) *)
  let crash_rounds = [ size.chaos_rounds / 4; size.chaos_rounds * 3 / 5 ] in
  let round r =
    let crash = if List.mem r crash_rounds then [ "n4"; "n13" ] else [] in
    let inserts = List.init size.chaos_inserts (fun _ -> data_insert rng ~at:(peer ())) in
    {
      bulk = false;
      steps =
        inserts
        @ [ Update { crash; restart_after = size.restart_after } ]
        @ queries rng ~peers:size.tree_peers ~count:size.chaos_queries;
    }
  in
  {
    name = "mixed-chaos";
    config = tree_config ~seed size;
    opts = chaos_opts ~seed;
    standing =
      List.map2
        (fun (subscriber, host) q -> (subscriber, host, q))
        [ ("n1", "n0"); ("n2", "n0"); ("n3", "n1"); ("n6", "n2") ]
        templates;
    ops = bulk :: List.init size.chaos_rounds round;
  }

let all =
  [
    ("update-tree", update_tree);
    ("update-mesh", update_mesh);
    ("query-storm", query_storm);
    ("mixed-chaos", mixed_chaos);
  ]

let names = List.map fst all

let make ~name ~seed size =
  Option.map (fun make -> make ~seed size) (List.assoc_opt name all)

(* Build the system and register the standing queries, letting their
   seed deltas settle.  Returns the subscribers' mirror ids. *)
let setup wl =
  let sys = System.build_exn ~opts:wl.opts wl.config in
  let subs =
    List.map
      (fun (subscriber, host, q) ->
        match System.subscribe_remote sys ~subscriber ~host q with
        | Ok id -> (subscriber, id)
        | Error e -> failwith (Printf.sprintf "standing query at %s refused: %s" subscriber e))
      wl.standing
  in
  ignore (System.run sys : int);
  (sys, subs)

type outcome =
  | Inserted
  | Updated of Codb_core.Ids.update_id * int  (** and the simulator events *)
  | Answered of System.query_outcome

let exec ?(on_restart = ignore) sys = function
  | Insert { at; rel; tuple } ->
      ignore (System.insert_fact sys ~at ~rel tuple : bool);
      Inserted
  | Update { crash; restart_after } ->
      List.iter (System.crash_node sys) crash;
      let uid = System.start_update sys ~initiator:"n0" in
      let events =
        if crash = [] then System.run sys
        else begin
          let before = System.run ~max_events:restart_after sys in
          List.iter
            (fun name ->
              System.restart_node sys name;
              on_restart name)
            crash;
          before + System.run sys
        end
      in
      Updated (uid, events)
  | Query { at; query } -> Answered (System.run_query sys ~at query)

(* The fault-free twin of a workload: same configuration, same
   operations, no injected faults and no crashes — the reference the
   mixed-chaos gate compares against. *)
let fault_free wl =
  let calm = function Update _ -> plain_update | (Insert _ | Query _) as s -> s in
  {
    wl with
    opts = { Options.default with Options.subscriptions = wl.opts.Options.subscriptions };
    ops = List.map (fun op -> { op with steps = List.map calm op.steps }) wl.ops;
  }

(* Run every operation untimed; the gates' reference runs. *)
let replay wl =
  let sys, subs = setup wl in
  let answered =
    List.concat_map
      (fun op ->
        List.filter_map
          (fun step ->
            match (step, exec sys step) with
            | Query { at; query }, Answered o -> Some (at, query, o)
            | _ -> None)
          op.steps)
      wl.ops
  in
  (sys, subs, answered)
