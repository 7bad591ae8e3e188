(* Benchmark harness entry point.

     dune exec bench/main.exe                 # every experiment + micro
     dune exec bench/main.exe -- experiments  # the numbered experiments only
     dune exec bench/main.exe -- experiments e14  # selected numbered experiments
     dune exec bench/main.exe -- e3 e5        # selected experiments
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks
     dune exec bench/main.exe -- gate         # every side bench's tiny run, checked;
                                              # prints the counts bench/gate.expected pins
     dune exec bench/main.exe -- chaos-json   # fault-injection sweep (table only)
     dune exec bench/main.exe -- chaos-json --durable  # same sweep with WAL durability on
     dune exec bench/main.exe -- recovery-json # crash-recovery bench -> BENCH_recovery.json
     dune exec bench/main.exe -- pushdown-json # constraint pushdown ablation (table only)
     dune exec bench/main.exe -- sub-json     # standing-query maintenance (table only)
     dune exec bench/main.exe -- scale-json   # storage-engine scale bench -> BENCH_scale.json
     dune exec bench/main.exe -- dict-json    # zone-map + dictionary bench -> BENCH_dict.json
     dune exec bench/main.exe -- --seed N ..  # reseed workload + fault schedule
     dune exec bench/main.exe -- --csv DIR .. # also write each table as CSV

   `dune runtest` runs `gate` and diffs its output against
   bench/gate.expected; after a designed change of counts, `dune
   promote` refreshes the golden. *)

(* The tiny run of every side bench, in a fixed order.  Each driver
   raises [Failure] when one of its checks fails. *)
let gate_sections =
  [
    ("planner", Planner_bench.gate);
    ("chaos.seed11", fun () -> Chaos_bench.gate ~seed:11 ~durable:false);
    ("chaos.seed1500", fun () -> Chaos_bench.gate ~seed:1500 ~durable:false);
    ("chaos.seed90210", fun () -> Chaos_bench.gate ~seed:90210 ~durable:false);
    ("chaos.durable", fun () -> Chaos_bench.gate ~seed:1500 ~durable:true);
    ("recovery", fun () -> Recovery_bench.gate ~seed:1500);
    ("pushdown", Pushdown_bench.gate);
    ("sub", Sub_bench.gate);
    ("scale", Scale_bench.gate);
    ("dict", Dict_bench.gate);
  ]

let gate () =
  let failed =
    List.filter
      (fun (name, section) ->
        match section () with
        | fields ->
            List.iter print_endline (Emit.gate_lines name fields);
            false
        | exception Failure why ->
            Printf.eprintf "gate: %s: %s\n%!" name why;
            true)
      gate_sections
  in
  if failed <> [] then exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let seed = ref 1500 in
  let durable = ref false in
  let rec extract acc = function
    | "--csv" :: dir :: rest ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Tables.csv_dir := Some dir;
        extract acc rest
    | "--durable" :: rest ->
        durable := true;
        extract acc rest
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n -> seed := n
        | None ->
            Printf.eprintf "--seed expects an integer, got %S\n" n;
            exit 1);
        extract acc rest
    | arg :: rest -> extract (arg :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract [] args in
  let commands =
    [
      ("micro", Micro.run);
      ("gate", gate);
      ("chaos-json", fun () -> Chaos_bench.run ~seed:!seed ~durable:!durable ());
      ("recovery-json", fun () -> Recovery_bench.run ~seed:!seed ());
      ("pushdown-json", Pushdown_bench.run);
      ("sub-json", Sub_bench.run);
      ("scale-json", Scale_bench.run);
      ("dict-json", Dict_bench.run);
    ]
  in
  let known = List.map fst Experiments.all in
  let check_known names =
    let unknown = List.filter (fun n -> not (List.mem n known)) names in
    if unknown <> [] then begin
      Printf.eprintf "unknown experiment(s): %s (known: %s)\n"
        (String.concat ", " unknown)
        (String.concat ", " (known @ List.map fst commands));
      exit 1
    end
  in
  match args with
  | [] ->
      Experiments.run [];
      Micro.run ()
  | "experiments" :: names ->
      check_known names;
      Experiments.run names
  | names ->
      let experiment_names = List.filter (fun n -> not (List.mem_assoc n commands)) names in
      check_known experiment_names;
      List.iter (fun (name, run) -> if List.mem name names then run ()) commands;
      if experiment_names <> [] then Experiments.run experiment_names
