(* codb — command-line front end.

   Subcommands:
     validate  check a network file
     generate  emit a synthetic network file for a given topology
     update    run a global update and print the super-peer report
     query     answer a conjunctive query at a node
     explain   print the cost-based evaluation plan for a query
     wire      run a global update and report its wire behaviour
     chaos     run under a deterministic fault plan and report resilience
     sub       register a standing query and watch its answer deltas live
     discover  run topology discovery from a node
     info      print the parsed network structure

   The network file syntax is documented in lib/cq/parser.mli and the
   README. *)

module System = Codb_core.System
module Options = Codb_core.Options
module Topology = Codb_core.Topology
module Report = Codb_core.Report
module Parser = Codb_cq.Parser
module Pretty = Codb_cq.Pretty
module Config = Codb_cq.Config
module Tuple = Codb_relalg.Tuple
module Peer_id = Codb_net.Peer_id

let or_die = function
  | Ok v -> v
  | Error message ->
      prerr_endline message;
      exit 1

(* A FILE that cannot be read (a directory, say) is one error line
   naming it, and exit 1. *)
let read_file path = or_die (Shell.read_file path)

let load_system ?opts path =
  match Parser.load_config (read_file path) with
  | Ok cfg -> Result.map_error (String.concat "\n") (System.build ?opts cfg)
  | Error errors -> Error (String.concat "\n" errors)

(* Every node name the user types goes through here: an unknown name
   is a usage error (exit 1), never an uncaught [Not_found]. *)
let node_or_die sys name =
  let known = System.node_names sys in
  if not (List.mem name known) then begin
    Fmt.epr "unknown node %s (known: %s)@." name (String.concat ", " known);
    exit 1
  end;
  name

(* Fault plans name nodes too.  [System] skips an unknown name at run
   time, because a node may join later; on the command line it is a
   typo. *)
let fault_nodes_or_die sys (opts : Options.t) =
  List.iter (fun (name, _, _) -> ignore (node_or_die sys name)) opts.Options.crash_plan;
  List.iter
    (fun (a, b, _, _) -> List.iter (fun name -> ignore (node_or_die sys name)) [ a; b ])
    opts.Options.flap_plan

let initiator_or_first sys = function
  | Some name -> node_or_die sys name
  | None -> (
      match System.node_names sys with
      | first :: _ -> first
      | [] ->
          Fmt.epr "the network has no nodes@.";
          exit 1)

let print_update_report sys uid =
  let cut = not (System.quiescent sys) in
  match Report.update_report ~cut (System.snapshots sys) uid with
  | Some report -> Fmt.pr "%a@." Report.pp_update_report report
  | None -> Fmt.pr "no statistics recorded?@."

(* --- validate ------------------------------------------------------ *)

let validate_cmd file =
  match Parser.load_config (read_file file) with
  | Ok cfg ->
      Fmt.pr "%s: OK (%d nodes, %d rules)@." file
        (List.length cfg.Config.nodes)
        (List.length cfg.Config.rules);
      0
  | Error errors ->
      List.iter (Fmt.epr "%s@.") errors;
      1

(* --- generate ------------------------------------------------------ *)

let shape_of_string s ~rows ~cols ~p =
  match s with
  | "chain" -> Ok Topology.Chain
  | "ring" -> Ok Topology.Ring
  | "star-in" -> Ok Topology.Star_in
  | "star-out" -> Ok Topology.Star_out
  | "tree" -> Ok Topology.Binary_tree
  | "grid" -> Ok (Topology.Grid (rows, cols))
  | "random" -> Ok (Topology.Random_graph p)
  | "clique" -> Ok Topology.Clique
  | other -> Error (Printf.sprintf "unknown shape %s" other)

let generate_cmd shape n seed tuples existential comparison rows cols p =
  let shape = or_die (shape_of_string shape ~rows ~cols ~p) in
  or_die (Topology.check_size shape ~n);
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = tuples;
      existential_frac = existential;
      comparison_frac = comparison;
    }
  in
  let cfg = Topology.generate ~params ~seed shape ~n in
  print_string (Pretty.config_to_string cfg);
  0

(* --- update -------------------------------------------------------- *)

let update_cmd file initiator verbose show_trace =
  let sys = or_die (load_system file) in
  let trace = if show_trace then Some (System.enable_trace sys) else None in
  let initiator = initiator_or_first sys initiator in
  print_update_report sys (System.run_update sys ~initiator);
  if verbose then Fmt.pr "@.%a@." Report.pp_network (System.snapshots sys);
  (match trace with
  | Some t -> Fmt.pr "@.protocol trace:@.%a@." Codb_core.Trace.pp t
  | None -> ());
  if System.quiescent sys then 0
  else begin
    prerr_endline Shell.cut_message;
    1
  end

(* --- query --------------------------------------------------------- *)

let parse_query_or_die text =
  match Parser.parse_query text with
  | Ok q -> q
  | Error e ->
      prerr_endline e;
      exit 1

(* A query the node cannot run (unknown relation, existential head) is
   a usage error too, checked before anything is dispatched. *)
let query_or_die sys ~at text =
  let q = parse_query_or_die text in
  or_die (Result.map (fun () -> q) (Codb_core.Node.check_query (System.node sys at) q))

let query_cmd file at text after_update scoped certain_only pushdown =
  let opts = { Options.default with Options.pushdown } in
  let sys = or_die (load_system ~opts file) in
  let at = node_or_die sys at in
  let q = query_or_die sys ~at text in
  (* answers read off a store whose update the event bound cut would
     pass for the fix-point's: say so and fail instead *)
  let local_answers () =
    if System.quiescent sys then System.local_answers sys ~at q
    else begin
      prerr_endline Shell.cut_message;
      exit 1
    end
  in
  let answers =
    if scoped then begin
      let _ = System.run_scoped_update sys ~at q in
      local_answers ()
    end
    else if after_update then begin
      let _ = System.run_update sys ~initiator:at in
      local_answers ()
    end
    else begin
      let outcome = System.run_query sys ~at q in
      Fmt.pr "(fetched with %d data messages, %.4fs simulated)@."
        outcome.System.qo_data_msgs
        (outcome.System.qo_finished -. outcome.System.qo_started);
      if pushdown then
        Option.iter
          (Fmt.pr "%a@." Report.pp_pushdown_report)
          (Report.pushdown_report (System.snapshots sys) outcome.System.qo_id);
      outcome.System.qo_answers
    end
  in
  let answers = if certain_only then Codb_cq.Eval.certain answers else answers in
  List.iter (fun t -> Fmt.pr "%a@." Tuple.pp t) answers;
  Fmt.pr "%d answer(s)@." (List.length answers);
  0

(* --- explain ------------------------------------------------------- *)

let explain_cmd file at text max_probe_cols pushdown =
  let sys = or_die (load_system file) in
  let at = node_or_die sys at in
  let q = query_or_die sys ~at text in
  let source = Codb_cq.Eval.of_database (System.node sys at).Codb_core.Node.store in
  Fmt.pr "%s@." (Codb_cq.Plan.explain q (Codb_cq.Eval.plan_for ?max_probe_cols source q));
  if pushdown then
    List.iter
      (fun rel ->
        Fmt.pr "push to %s: %a@." rel Codb_cq.Specialize.pp
          (Codb_cq.Specialize.of_query q ~rel))
      (Codb_cq.Query.body_relations q);
  0

(* --- wire ---------------------------------------------------------- *)

let wire_cmd file initiator =
  let sys = or_die (load_system file) in
  let initiator = initiator_or_first sys initiator in
  let uid = System.run_update sys ~initiator in
  (match Report.update_report (System.snapshots sys) uid with
  | Some r -> Fmt.pr "%a@." Report.pp_wire_report r
  | None -> Fmt.pr "no statistics recorded?@.");
  let c = Codb_net.Network.counters (System.net sys) in
  Fmt.pr "network: %d message(s) delivered, %d B carried@." c.Codb_net.Network.delivered
    c.Codb_net.Network.total_bytes;
  Fmt.pr "%a@." Codb_net.Link_dict.pp_stats (System.link_dict_stats sys);
  0

(* --- chaos --------------------------------------------------------- *)

let parse_flap spec =
  match String.split_on_char ':' spec with
  | [ a; b; down; up ] -> (
      match (float_of_string_opt down, float_of_string_opt up) with
      | Some down, Some up -> Ok (a, b, down, up)
      | _ -> Error (Printf.sprintf "bad flap times in %S" spec))
  | _ -> Error (Printf.sprintf "bad flap %S (expected a:b:down:up)" spec)

let parse_crash spec =
  match String.split_on_char ':' spec with
  | [ node; at ] -> (
      match float_of_string_opt at with
      | Some at -> Ok (node, at, None)
      | None -> Error (Printf.sprintf "bad crash time in %S" spec))
  | [ node; at; restart ] -> (
      match (float_of_string_opt at, float_of_string_opt restart) with
      | Some at, Some restart -> Ok (node, at, Some restart)
      | _ -> Error (Printf.sprintf "bad crash times in %S" spec))
  | _ -> Error (Printf.sprintf "bad crash %S (expected node:at[:restart])" spec)

let parse_all parse specs =
  List.fold_left
    (fun acc spec -> Result.bind acc (fun l -> Result.map (fun x -> x :: l) (parse spec)))
    (Ok []) specs
  |> Result.map List.rev

let chaos_cmd file initiator seed drop dup jitter budget flaps crashes ack_timeout
    max_retries query at =
  let opts =
    {
      Options.default with
      Options.fault_seed = seed;
      drop_prob = drop;
      dup_prob = dup;
      jitter;
      drop_budget = (match budget with Some b -> b | None -> max_int);
      flap_plan = or_die (parse_all parse_flap flaps);
      crash_plan = or_die (parse_all parse_crash crashes);
      ack_timeout;
      max_retries;
    }
  in
  let sys = or_die (load_system ~opts file) in
  fault_nodes_or_die sys opts;
  let initiator = initiator_or_first sys initiator in
  let at = match at with Some at -> node_or_die sys at | None -> initiator in
  let query = Option.map (query_or_die sys ~at) query in
  print_update_report sys (System.run_update sys ~initiator);
  (match query with
  | None -> ()
  | Some q ->
      let outcome = System.run_query sys ~at q in
      Fmt.pr "@.query at %s: %d answer(s), %s@." at
        (List.length outcome.System.qo_answers)
        (if outcome.System.qo_complete then "complete"
         else "INCOMPLETE (some sub-requests failed)"));
  Fmt.pr "@.%a@." Report.pp_chaos_report (Report.chaos_report (System.snapshots sys));
  let c = Codb_net.Network.counters (System.net sys) in
  Fmt.pr
    "network: %d delivered, %d injected drop(s), %d injected dup(s), %d flap(s), %d \
     crash(es), %d restart(s)@."
    c.Codb_net.Network.delivered c.Codb_net.Network.injected_drops
    c.Codb_net.Network.injected_dups c.Codb_net.Network.injected_flaps
    c.Codb_net.Network.crashes c.Codb_net.Network.restarts;
  Fmt.pr "%a@." Codb_net.Link_dict.pp_stats (System.link_dict_stats sys);
  0

(* --- recover -------------------------------------------------------- *)

let recover_cmd file initiator seed crashes durability wal_dir fsync ack_timeout
    max_retries =
  let opts =
    {
      Options.default with
      Options.fault_seed = seed;
      crash_plan = or_die (parse_all parse_crash crashes);
      ack_timeout;
      max_retries;
      durability;
      wal_dir;
      fsync;
    }
  in
  let sys = or_die (load_system ~opts file) in
  fault_nodes_or_die sys opts;
  let initiator = initiator_or_first sys initiator in
  print_update_report sys (System.run_update sys ~initiator);
  (* the fault-free reference: same network, no crashes, no durability
     machinery — the recovered run must land on the same stores *)
  let reference = or_die (load_system ~opts:Options.default file) in
  let _ = System.run_update reference ~initiator in
  let diverged =
    List.filter
      (fun name -> System.store_digest sys name <> System.store_digest reference name)
      (System.node_names sys)
  in
  (match diverged with
  | [] -> Fmt.pr "@.stores: every node matches the fault-free reference@."
  | names ->
      Fmt.pr "@.stores: DIVERGED from the fault-free reference at %s@."
        (String.concat ", " names));
  let dr = System.durability_report sys in
  Fmt.pr
    "durability: %d WAL record(s) (%d B), %d snapshot(s) (%d B), %d \
     recovery(ies) replaying %d record(s) (%d B) in %.3f ms@."
    dr.System.dr_wal_records dr.System.dr_wal_bytes dr.System.dr_snapshots
    dr.System.dr_snapshot_bytes dr.System.dr_recoveries
    dr.System.dr_recovered_records dr.System.dr_replayed_bytes
    dr.System.dr_recovery_ms;
  Fmt.pr "%a@." Report.pp_chaos_report (Report.chaos_report (System.snapshots sys));
  let c = Codb_net.Network.counters (System.net sys) in
  Fmt.pr "network: %d delivered, %d crash(es), %d restart(s)@."
    c.Codb_net.Network.delivered c.Codb_net.Network.crashes
    c.Codb_net.Network.restarts;
  if diverged = [] then 0 else 1

(* --- sub ----------------------------------------------------------- *)

let parse_insert_value s =
  match int_of_string_opt s with
  | Some n -> Codb_relalg.Value.Int n
  | None -> (
      match float_of_string_opt s with
      | Some f -> Codb_relalg.Value.Float f
      | None -> (
          match bool_of_string_opt s with
          | Some b -> Codb_relalg.Value.Bool b
          | None -> Codb_relalg.Value.Str s))

(* REL:V1,V2[@NODE] — the fact to insert and (optionally) where *)
let parse_insert spec =
  match String.index_opt spec ':' with
  | None -> Error (Printf.sprintf "bad insert %S (expected rel:v1,v2[@node])" spec)
  | Some i ->
      let rel = String.sub spec 0 i in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      let rest, node =
        match String.index_opt rest '@' with
        | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
        | None -> (rest, None)
      in
      if rel = "" || rest = "" then
        Error (Printf.sprintf "bad insert %S (expected rel:v1,v2[@node])" spec)
      else
        Ok
          ( rel,
            Array.of_list
              (List.map parse_insert_value (String.split_on_char ',' rest)),
            node )

let sub_cmd file text at from inserts updates initiator =
  let opts = { Options.default with Options.subscriptions = true } in
  let inserts = or_die (parse_all parse_insert inserts) in
  let sys = or_die (load_system ~opts file) in
  let at = node_or_die sys at in
  let from = Option.map (node_or_die sys) from in
  let q = parse_query_or_die text in
  let viewer = Option.value ~default:at from in
  let on_delta (d : Codb_sub.Subscription.delta) =
    let pp_signed sign ppf row =
      Fmt.pf ppf "@,  %s %a" sign Tuple.pp (Codb_relalg.Row.to_tuple row)
    in
    Fmt.pr "@[<v>delta [%s] at %s:%a%a@]@." d.Codb_sub.Subscription.d_tag viewer
      Fmt.(list ~sep:nop (pp_signed "+"))
      d.Codb_sub.Subscription.d_adds
      Fmt.(list ~sep:nop (pp_signed "-"))
      d.Codb_sub.Subscription.d_retracts
  in
  let id =
    match from with
    | None -> or_die (System.subscribe sys ~at ~on_delta q)
    | Some subscriber ->
        or_die (System.subscribe_remote sys ~subscriber ~host:at ~on_delta q)
  in
  let _ = System.run sys in
  (match from with
  | None -> Fmt.pr "subscribed at %s (id %s)@." at id
  | Some subscriber -> (
      match System.mirror sys ~at:subscriber id with
      | Some m when Codb_sub.Mirror.accepted m ->
          Fmt.pr "%s subscribed to %s at %s (id %s)@." subscriber text at id
      | Some m ->
          Fmt.epr "registration refused: %s@."
            (Option.value ~default:"?" (Codb_sub.Mirror.rejected m));
          exit 1
      | None ->
          Fmt.epr "mirror vanished?@.";
          exit 1));
  List.iter
    (fun (rel, tuple, node) ->
      let node = match node with Some node -> node_or_die sys node | None -> at in
      Fmt.pr "insert %s%a at %s@." rel Tuple.pp tuple node;
      ignore (System.insert_fact sys ~at:node ~rel tuple);
      ignore (System.run sys))
    inserts;
  let initiator = initiator_or_first sys initiator in
  for k = 1 to updates do
    Fmt.pr "-- global update %d of %d (initiator %s) --@." k updates initiator;
    ignore (System.run_update sys ~initiator)
  done;
  (match System.subscription_answers sys ~at:viewer id with
  | Some answers ->
      Fmt.pr "@.standing answer set (%d tuple(s)):@." (List.length answers);
      List.iter (fun t -> Fmt.pr "  %a@." Tuple.pp t) answers
  | None -> Fmt.pr "subscription lost?@.");
  Fmt.pr "@.%a@." Report.pp_sub_report (Report.sub_report (System.snapshots sys));
  0

(* --- discover ------------------------------------------------------ *)

let discover_cmd file at ttl =
  or_die (Codb_core.Discovery.check_ttl ttl);
  let sys = or_die (load_system file) in
  let at = node_or_die sys at in
  let peers = System.discover sys ~at ~ttl in
  List.iter (fun p -> Fmt.pr "%a@." Peer_id.pp p) peers;
  Fmt.pr "%d peer(s) discovered from %s with ttl %d@." (List.length peers) at ttl;
  0

(* --- info ---------------------------------------------------------- *)

let info_cmd file dot =
  let cfg =
    or_die (Result.map_error (String.concat "\n") (Parser.load_config (read_file file)))
  in
  (match dot with
  | Some "topology" ->
      print_string (Codb_core.Viz.topology_dot cfg);
      exit 0
  | Some "rules" ->
      print_string (Codb_core.Viz.dependency_dot cfg);
      exit 0
  | Some other ->
      Fmt.epr "unknown --dot kind %s (expected topology or rules)@." other;
      exit 1
  | None -> ());
  List.iter
    (fun n ->
      Fmt.pr "node %s%s: %d relation(s), %d fact(s)%s@." n.Config.node_name
        (if n.Config.mediator then " (mediator)" else "")
        (List.length n.Config.relations)
        (List.length n.Config.facts)
        (match n.Config.constraints with
        | [] -> ""
        | cs -> Printf.sprintf ", %d constraint(s)" (List.length cs)))
    cfg.Config.nodes;
  List.iter
    (fun r ->
      Fmt.pr "rule %s: %s <- %s  [%a]@." r.Config.rule_id r.Config.importer
        r.Config.source Pretty.query r.Config.rule_query)
    cfg.Config.rules;
  0

(* --- analyse ------------------------------------------------------- *)

let analyse_cmd file minimise =
  let cfg =
    or_die (Result.map_error (String.concat "\n") (Parser.load_config (read_file file)))
  in
  let redundancies = Codb_core.Analysis.redundant_rules cfg in
  List.iter (fun r -> Fmt.pr "%a@." Codb_core.Analysis.pp_redundancy r) redundancies;
  if redundancies = [] then Fmt.pr "no redundant coordination rules@.";
  (match Codb_core.Analysis.cyclic_components cfg with
  | [] -> Fmt.pr "rule dependency graph is acyclic: no fix-point iteration needed@."
  | components ->
      List.iter
        (fun c ->
          Fmt.pr "cyclic component (needs fix-point): %s@." (String.concat ", " c))
        components);
  if minimise then begin
    let minimal = Codb_core.Analysis.minimise cfg in
    print_string (Pretty.config_to_string minimal)
  end;
  0

(* --- cmdliner plumbing --------------------------------------------- *)

open Cmdliner

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Network file.")

let initiator_arg names =
  Arg.(
    value
    & opt (some string) None
    & info names ~doc:"Initiating node (default: first node).")

let validate_t =
  let doc = "Parse and statically check a network file." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(const validate_cmd $ file_arg)

let generate_t =
  let doc = "Generate a synthetic network file on stdout." in
  let shape =
    Arg.(
      value
      & opt string "chain"
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:"chain, ring, star-in, star-out, tree, grid, random or clique.")
  in
  let n = Arg.(value & opt int 8 & info [ "nodes"; "n" ] ~doc:"Number of nodes.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let tuples = Arg.(value & opt int 50 & info [ "tuples" ] ~doc:"Base facts per node.") in
  let existential =
    Arg.(
      value
      & opt float 0.0
      & info [ "existential" ] ~doc:"Fraction of rules with existential heads.")
  in
  let comparison =
    Arg.(
      value
      & opt float 0.0
      & info [ "comparison" ] ~doc:"Fraction of rules with a comparison predicate.")
  in
  let rows = Arg.(value & opt int 2 & info [ "rows" ] ~doc:"Grid rows.") in
  let cols = Arg.(value & opt int 4 & info [ "cols" ] ~doc:"Grid columns.") in
  let p =
    Arg.(value & opt float 0.2 & info [ "p" ] ~doc:"Random-graph edge probability.")
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(
      const generate_cmd $ shape $ n $ seed $ tuples $ existential $ comparison $ rows
      $ cols $ p)

let update_t =
  let doc = "Run a global update and print the aggregated report." in
  let initiator = initiator_arg [ "initiator"; "at" ] in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Also dump per-node statistics.")
  in
  let show_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the message-level protocol trace.")
  in
  Cmd.v (Cmd.info "update" ~doc)
    Term.(const update_cmd $ file_arg $ initiator $ verbose $ show_trace)

let query_t =
  let doc = "Answer a conjunctive query at a node." in
  let at =
    Arg.(required & opt (some string) None & info [ "at" ] ~doc:"Node to query.")
  in
  let text =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. \"ans(x) <- r(x, y), y > 2\".")
  in
  let after_update =
    Arg.(
      value & flag
      & info [ "materialise" ]
          ~doc:
            "Run a global update first and answer locally instead of fetching at query \
             time.")
  in
  let scoped =
    Arg.(
      value & flag
      & info [ "scoped" ]
          ~doc:
            "Run a query-dependent update first: materialise only what the query \
             needs, then answer locally.")
  in
  let certain =
    Arg.(value & flag & info [ "certain" ] ~doc:"Print only null-free answers.")
  in
  let pushdown =
    Arg.(
      value & flag
      & info [ "pushdown" ]
          ~doc:
            "Push the query's constraints into neighbour sub-requests so sources \
             withhold irrelevant tuples (and print the pushdown report afterwards).")
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(
      const query_cmd $ file_arg $ at $ text $ after_update $ scoped $ certain
      $ pushdown)

let explain_t =
  let doc = "Print the cost-based evaluation plan chosen for a query." in
  let at =
    Arg.(
      required & opt (some string) None
      & info [ "at" ] ~doc:"Node whose local store provides the statistics.")
  in
  let text =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. \"ans(x) <- r(x, y), s(y, z)\".")
  in
  let max_probe_cols =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-probe-cols" ] ~docv:"N"
          ~doc:"Cap index probes at N columns (1 = single-column ablation).")
  in
  let pushdown =
    Arg.(
      value & flag
      & info [ "pushdown" ]
          ~doc:
            "Also print, per body relation, the constraint set the query would push \
             into that relation's sub-requests.")
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const explain_cmd $ file_arg $ at $ text $ max_probe_cols $ pushdown)

let wire_t =
  let doc = "Run a global update and report its wire behaviour." in
  let initiator = initiator_arg [ "initiator"; "at" ] in
  Cmd.v (Cmd.info "wire" ~doc) Term.(const wire_cmd $ file_arg $ initiator)

let chaos_t =
  let doc =
    "Run a global update under a deterministic fault plan (seeded drops, duplicates, \
     jitter, link flaps, node crashes) and report how the protocols coped."
  in
  let initiator = initiator_arg [ "initiator" ] in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N"
          ~doc:"Fault-plan seed; the same seed replays the same fault schedule.")
  in
  let drop =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P" ~doc:"Per-message silent loss probability.")
  in
  let dup =
    Arg.(
      value & opt float 0.0
      & info [ "dup" ] ~docv:"P" ~doc:"Per-message duplicate-delivery probability.")
  in
  let jitter =
    Arg.(
      value & opt float 0.0
      & info [ "jitter" ] ~docv:"SECONDS"
          ~doc:"Extra random delivery delay, uniform in [0, SECONDS).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "drop-budget" ] ~docv:"N"
          ~doc:"Stop injecting drops after N (default: unlimited).")
  in
  let flaps =
    Arg.(
      value & opt_all string []
      & info [ "flap" ] ~docv:"A:B:DOWN:UP"
          ~doc:"Take the pipe between A and B down at DOWN, back up at UP (repeatable).")
  in
  let crashes =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"NODE:AT[:RESTART]"
          ~doc:
            "Crash NODE at AT; with RESTART it comes back with only its declared \
             facts and refetches the rest through a catch-up update (repeatable).")
  in
  let ack_timeout =
    Arg.(
      value & opt float 0.05
      & info [ "ack-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Reliable-transport acknowledgement timeout: retransmit unacknowledged \
             messages after this long, doubling the wait on each retry. Pass 0 for \
             fire-and-forget (the seed behaviour: losses surface as partial \
             results instead of being repaired).")
  in
  let max_retries =
    Arg.(
      value
      & opt int Options.default.Options.max_retries
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Give up a message after N retransmissions.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ]
          ~doc:
            "Also answer this query under the same faults and report whether the \
             answer is complete.")
  in
  let at =
    Arg.(
      value
      & opt (some string) None
      & info [ "at" ] ~doc:"Node for $(b,--query) (default: the initiator).")
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const chaos_cmd $ file_arg $ initiator $ seed $ drop $ dup $ jitter $ budget
      $ flaps $ crashes $ ack_timeout $ max_retries $ query $ at)

let recover_t =
  let doc =
    "Run a global update with nodes crashing and recovering from their \
     write-ahead logs, then check the stores against a fault-free reference \
     run (exit 1 on divergence)."
  in
  let initiator = initiator_arg [ "initiator" ] in
  let seed =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Fault-plan seed (reproducible schedules).")
  in
  let crashes =
    Arg.(
      value & opt_all string []
      & info [ "crash" ] ~docv:"NODE:AT[:RESTART]"
          ~doc:"Crash NODE at AT and restart it at RESTART (repeatable).")
  in
  let durability =
    let modes = [ ("volatile", Options.Dur_volatile); ("wal", Options.Dur_wal) ] in
    Arg.(
      value
      & opt (enum modes) Options.Dur_wal
      & info [ "durability" ] ~docv:"MODE"
          ~doc:
            "Crash model: $(b,volatile) wipes the store and refetches through a \
             catch-up update, $(b,wal) recovers it from the write-ahead log.")
  in
  let wal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal-dir" ] ~docv:"DIR"
          ~doc:
            "Keep each node's .wal/.snap files under DIR (default: a \
             deterministic in-memory backend).")
  in
  let fsync =
    Arg.(
      value & flag
      & info [ "fsync" ] ~doc:"Fsync every WAL write (requires $(b,--wal-dir)).")
  in
  let ack_timeout =
    Arg.(
      value & opt float 0.05
      & info [ "ack-timeout" ] ~docv:"SECONDS"
          ~doc:"Reliable-transport acknowledgement timeout.")
  in
  let max_retries =
    Arg.(
      value & opt int 8
      & info [ "max-retries" ] ~docv:"N"
          ~doc:"Give up a message after N retransmissions.")
  in
  Cmd.v (Cmd.info "recover" ~doc)
    Term.(
      const recover_cmd $ file_arg $ initiator $ seed $ crashes $ durability
      $ wal_dir $ fsync $ ack_timeout $ max_retries)

let sub_t =
  let doc =
    "Register a standing (continuous) query and watch its answer deltas arrive as \
     local writes and global updates change the stores."
  in
  let at =
    Arg.(
      required
      & opt (some string) None
      & info [ "at" ] ~doc:"Node that hosts (evaluates) the standing query.")
  in
  let text =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. \"ans(k, v) <- data(k, v)\".")
  in
  let from =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"NODE"
          ~doc:
            "Subscribe from this node instead: the host pushes answer deltas over \
             the wire and NODE maintains a mirror.")
  in
  let inserts =
    Arg.(
      value & opt_all string []
      & info [ "insert" ] ~docv:"REL:V1,V2[@NODE]"
          ~doc:
            "Insert this fact (at the host unless @NODE says otherwise) after \
             subscribing, and run the network so the delta propagates \
             (repeatable, applied in order).")
  in
  let updates =
    Arg.(
      value & opt int 1
      & info [ "updates" ] ~docv:"N" ~doc:"Run N global updates afterwards.")
  in
  let initiator = initiator_arg [ "initiator" ] in
  Cmd.v (Cmd.info "sub" ~doc)
    Term.(
      const sub_cmd $ file_arg $ text $ at $ from $ inserts $ updates $ initiator)

let discover_t =
  let doc = "Run JXTA-style topology discovery from a node." in
  let at = Arg.(required & opt (some string) None & info [ "at" ] ~doc:"Origin node.") in
  let ttl = Arg.(value & opt int 3 & info [ "ttl" ] ~doc:"Probe time-to-live.") in
  Cmd.v (Cmd.info "discover" ~doc) Term.(const discover_cmd $ file_arg $ at $ ttl)

let info_t =
  let doc = "Print the parsed structure of a network file." in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"KIND"
          ~doc:"Emit Graphviz instead: 'topology' (peers and rules) or 'rules' (the \
                rule dependency graph, cyclic components highlighted).")
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const info_cmd $ file_arg $ dot)

(* --- dump / load --------------------------------------------------- *)

let dump_cmd file update_first dir =
  let sys = or_die (load_system file) in
  if update_first then ignore (System.run_update sys ~initiator:(initiator_or_first sys None));
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  List.iter
    (fun (name, text) ->
      Out_channel.with_open_bin
        (Filename.concat dir (name ^ ".csv"))
        (fun oc -> Out_channel.output_string oc text))
    (System.export_stores sys);
  Fmt.pr "stores written to %s/@." dir;
  0

let load_cmd file dir query at =
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Fmt.epr "no dump directory %s@." dir;
    exit 1
  end;
  let sys = or_die (load_system file) in
  let dumps =
    List.filter_map
      (fun name ->
        let path = Filename.concat dir (name ^ ".csv") in
        if Sys.file_exists path then Some (name, read_file path) else None)
      (System.node_names sys)
  in
  let loaded = or_die (System.import_stores sys dumps) in
  Fmt.pr "%d tuple(s) loaded@." loaded;
  (match (query, at) with
  | Some text, Some at ->
      let q = parse_query_or_die text in
      let answers = System.local_answers sys ~at:(node_or_die sys at) q in
      List.iter (fun t -> Fmt.pr "%a@." Tuple.pp t) answers;
      Fmt.pr "%d answer(s)@." (List.length answers)
  | _ -> ());
  0

let shell_cmd file =
  let sys = or_die (load_system file) in
  Shell.run sys

let shell_t =
  let doc = "Interactive shell on a network (the demo's node UI)." in
  Cmd.v (Cmd.info "shell" ~doc) Term.(const shell_cmd $ file_arg)

let dump_t =
  let doc = "Export every node's store as CSV files (marked nulls round-trip)." in
  let update_first =
    Arg.(value & flag & info [ "update" ] ~doc:"Run a global update before dumping.")
  in
  let dir =
    Arg.(value & opt string "codb-dump" & info [ "dir" ] ~doc:"Output directory.")
  in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const dump_cmd $ file_arg $ update_first $ dir)

let load_t =
  let doc = "Rebuild a network and load previously dumped stores." in
  let dir =
    Arg.(value & opt string "codb-dump" & info [ "dir" ] ~doc:"Dump directory.")
  in
  let query =
    Arg.(value & opt (some string) None
         & info [ "query" ] ~doc:"Optionally answer a query locally after loading.")
  in
  let at =
    Arg.(value & opt (some string) None & info [ "at" ] ~doc:"Node for --query.")
  in
  Cmd.v (Cmd.info "load" ~doc) Term.(const load_cmd $ file_arg $ dir $ query $ at)

let analyse_t =
  let doc = "Detect redundant coordination rules (CQ containment)." in
  let minimise =
    Arg.(
      value & flag
      & info [ "minimise" ] ~doc:"Print the network with redundant rules dropped.")
  in
  Cmd.v (Cmd.info "analyse" ~doc) Term.(const analyse_cmd $ file_arg $ minimise)

let main =
  let doc = "the coDB peer-to-peer database system (simulation)" in
  Cmd.group
    (Cmd.info "codb" ~version:"1.0.0" ~doc)
    [
      validate_t; generate_t; update_t; query_t; explain_t; wire_t;
      chaos_t; recover_t; sub_t; discover_t; info_t; analyse_t; shell_t; dump_t;
      load_t;
    ]

let () = exit (Cmd.eval' main)
