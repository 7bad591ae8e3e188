(* The interactive shell: the simulation's stand-in for the node UI of
   the original demo (paper Figures 2 and 3).  Through it a user can
   commence network queries and updates, browse streaming results,
   insert facts, start topology discovery, re-broadcast rules files,
   and read the statistical reports. *)

module System = Codb_core.System
module Superpeer = Codb_core.Superpeer
module Report = Codb_core.Report
module Analysis = Codb_core.Analysis
module Node = Codb_core.Node
module Parser = Codb_cq.Parser
module Pretty = Codb_cq.Pretty
module Config = Codb_cq.Config
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
module Tuple = Codb_relalg.Tuple
module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network

(* Read a whole file, or say why not in one line naming the path (the
   CLI reads its inputs through this too).  Reading a directory fails
   with an error that omits the path, or that misleads ("Value too
   large for defined data type"), so a directory is refused first. *)
let read_file path =
  if Sys.file_exists path && Sys.is_directory path then Error (path ^ ": Is a directory")
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> Ok text
    | exception Sys_error e ->
        Error (if String.starts_with ~prefix:path e then e else path ^ ": " ^ e)

let help_text =
  {|commands:
  query <node> <query>      answer a query at a node, streaming results
                            e.g. query n0 ans(x, y) <- data(x, y)
  scoped <node> <query>     query-dependent update, then answer locally
  update <node>             run a global update initiated at a node
  insert <node> <fact>      insert a fact, e.g. insert n0 data(7, "x")
  show <node> [relation]    dump a node's local database
  why <node> <fact>         explain where a stored tuple came from
  stats                     collect and print the super-peer report
  topology                  list nodes, rules and open pipes
  discover <node> <ttl>     run topology discovery from a node
  rules <file>              broadcast a new coordination-rules file
  analyse                   detect redundant coordination rules
  help                      this text
  quit                      leave the shell|}

let split_command line =
  match String.index_opt line ' ' with
  | None -> (line, "")
  | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )

let with_node sys name f =
  match System.node sys name with
  | node -> f node
  | exception Not_found -> Fmt.pr "unknown node %s@." name

let cmd_query sys rest ~scoped =
  match split_command rest with
  | "", _ | _, "" -> Fmt.pr "usage: query <node> <query>@."
  | at, text -> (
      match Parser.parse_query text with
      | Error e -> Fmt.pr "%s@." e
      | Ok q ->
          with_node sys at (fun node ->
              match Node.check_query node q with
              | Error msg -> Fmt.pr "error: %s@." msg
              | Ok () when scoped ->
                  let _ = System.run_scoped_update sys ~at q in
                  (* a cut update's store answers nothing: the caller
                     ends the session *)
                  if System.quiescent sys then begin
                    let answers = System.local_answers sys ~at q in
                    List.iter (fun t -> Fmt.pr "  %a@." Tuple.pp t) answers;
                    Fmt.pr "%d answer(s), materialised locally@." (List.length answers)
                  end
              | Ok () ->
                  let outcome =
                    System.run_query sys ~at q ~on_partial:(fun batch ->
                        List.iter (fun t -> Fmt.pr "  %a@." Tuple.pp t) batch)
                  in
                  Fmt.pr "%d answer(s) (%d certain), %.4fs simulated, %d data msgs@."
                    (List.length outcome.System.qo_answers)
                    (List.length outcome.System.qo_certain)
                    (outcome.System.qo_finished -. outcome.System.qo_started)
                    outcome.System.qo_data_msgs))

let cut_message =
  "update cut at the event bound: the fix-point was not reached (the rule set may \
   not terminate)"

let cmd_update sys at =
  if at = "" || String.contains at ' ' then Fmt.pr "usage: update <node>@."
  else
    with_node sys at (fun _ ->
        let uid = System.run_update sys ~initiator:at in
        let cut = not (System.quiescent sys) in
        match Report.update_report ~cut (System.snapshots sys) uid with
        | Some r -> Fmt.pr "%a@." Report.pp_update_report r
        | None -> Fmt.pr "no report@.")

let cmd_insert sys rest =
  match split_command rest with
  | "", _ | _, "" -> Fmt.pr "usage: insert <node> <fact>@."
  | at, text -> (
      match Parser.parse_fact text with
      | Error e -> Fmt.pr "%s@." e
      | Ok (rel, tuple) ->
          with_node sys at (fun _ ->
              try
                if System.insert_fact sys ~at ~rel tuple then
                  Fmt.pr "inserted; it will propagate on the next update@."
                else Fmt.pr "already present@."
              with
              | Not_found -> Fmt.pr "unknown relation %s at %s@." rel at
              | Invalid_argument msg -> Fmt.pr "error: %s@." msg))

let cmd_show sys rest =
  match split_command rest with
  | "", _ -> Fmt.pr "usage: show <node> [relation]@."
  | at, "" -> with_node sys at (fun node -> Fmt.pr "%a@." Database.pp node.Node.store)
  | at, rel ->
      with_node sys at (fun node ->
          match Database.relation_opt node.Node.store rel with
          | Some r -> Fmt.pr "%a@." Relation.pp r
          | None -> Fmt.pr "unknown relation %s at %s@." rel at)

let cmd_why sys rest =
  match split_command rest with
  | "", _ | _, "" -> Fmt.pr "usage: why <node> <fact>@."
  | at, text -> (
      match Parser.parse_fact text with
      | Error e -> Fmt.pr "%s@." e
      | Ok (rel, tuple) ->
          with_node sys at (fun node ->
              match Database.relation_opt node.Node.store rel with
              | None -> Fmt.pr "unknown relation %s at %s@." rel at
              | Some r when not (Codb_relalg.Schema.conforms (Relation.schema r) tuple) ->
                  Fmt.pr "error: %s%a does not conform to %s@." rel Tuple.pp tuple
                    (Codb_relalg.Schema.to_string (Relation.schema r))
              | Some _ -> (
                  match Node.explain node ~rel tuple with
                  | None -> Fmt.pr "%s does not hold %s%a@." at rel Tuple.pp tuple
                  | Some origin -> Fmt.pr "%a@." Codb_core.Lineage.pp_origin origin)))

let cmd_stats sys =
  let snaps = System.collect_stats sys in
  Fmt.pr "%a@." Report.pp_network snaps;
  match Report.latest_update_report snaps with
  | Some r -> Fmt.pr "@.last update:@.%a@." Report.pp_update_report r
  | None -> ()

let cmd_topology sys =
  let cfg = System.config sys in
  List.iter
    (fun name ->
      with_node sys name (fun node ->
          Fmt.pr "node %s: %d tuples, %d outgoing, %d incoming@." name
            (Database.cardinal node.Node.store)
            (List.length node.Node.outgoing)
            (List.length node.Node.incoming)))
    (System.node_names sys);
  List.iter
    (fun r -> Fmt.pr "rule %s: %s <- %s@." r.Config.rule_id r.Config.importer r.Config.source)
    cfg.Config.rules;
  let open_pipes =
    List.filter Codb_net.Pipe.is_open (Network.pipes (System.net sys))
  in
  Fmt.pr "%d open pipe(s)@." (List.length open_pipes)

let cmd_discover sys rest =
  match split_command rest with
  | at, ttl_text -> (
      match int_of_string_opt (String.trim ttl_text) with
      | None -> Fmt.pr "usage: discover <node> <ttl>@."
      | Some ttl ->
          with_node sys at (fun _ ->
              match Codb_core.Discovery.check_ttl ttl with
              | Error msg -> Fmt.pr "error: %s@." msg
              | Ok () ->
                  let peers = System.discover sys ~at ~ttl in
                  Fmt.pr "discovered: %a@." Fmt.(list ~sep:(any ", ") Peer_id.pp) peers))

let cmd_rules sys path =
  if path = "" then Fmt.pr "usage: rules <file>@."
  else
    match read_file path with
    | Error e -> Fmt.pr "%s@." e
    | Ok text -> (
        match Parser.parse_config text with
        | Error e -> Fmt.pr "%s@." e
        | Ok cfg ->
            System.broadcast_rules sys cfg;
            Fmt.pr "rules broadcast; topology updated@.")

let cmd_analyse sys =
  match Analysis.redundant_rules (System.config sys) with
  | [] -> Fmt.pr "no redundant coordination rules@."
  | redundancies ->
      List.iter (fun r -> Fmt.pr "%a@." Analysis.pp_redundancy r) redundancies

(* A command that takes no argument refuses one, rather than ignoring
   it. *)
let bare name rest f = if rest = "" then f () else Fmt.pr "usage: %s@." name

let run sys =
  Fmt.pr "coDB shell — type 'help' for commands@.";
  let rec loop_unless_cut () =
    (* a cut run leaves its events queued, and every later command
       would resume the divergent update: end here *)
    if System.quiescent sys then loop ()
    else begin
      prerr_endline cut_message;
      1
    end
  and loop () =
    Fmt.pr "codb> %!";
    match In_channel.input_line stdin with
    | None -> 0
    | Some line -> (
        let line = String.trim line in
        match split_command line with
        | "", _ -> loop ()
        | ("quit" | "exit"), "" -> 0
        | ("quit" | "exit") as name, _ ->
            Fmt.pr "usage: %s@." name;
            loop ()
        | "help", rest ->
            bare "help" rest (fun () -> Fmt.pr "%s@." help_text);
            loop ()
        | "query", rest ->
            cmd_query sys rest ~scoped:false;
            loop ()
        | "scoped", rest ->
            cmd_query sys rest ~scoped:true;
            loop_unless_cut ()
        | "update", at ->
            cmd_update sys (String.trim at);
            loop_unless_cut ()
        | "insert", rest ->
            cmd_insert sys rest;
            loop ()
        | "show", rest ->
            cmd_show sys rest;
            loop ()
        | "why", rest ->
            cmd_why sys rest;
            loop ()
        | "stats", rest ->
            bare "stats" rest (fun () -> cmd_stats sys);
            loop ()
        | "topology", rest ->
            bare "topology" rest (fun () -> cmd_topology sys);
            loop ()
        | "discover", rest ->
            cmd_discover sys rest;
            loop ()
        | "rules", path ->
            cmd_rules sys (String.trim path);
            loop ()
        | ("analyse" | "analyze") as name, rest ->
            bare name rest (fun () -> cmd_analyse sys);
            loop ()
        | other, _ ->
            Fmt.pr "unknown command %s (try 'help')@." other;
            loop ())
  in
  loop ()
