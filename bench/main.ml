(* Benchmark harness entry point.

     dune exec bench/main.exe                 # every experiment + micro
     dune exec bench/main.exe -- experiments  # the numbered experiments only
     dune exec bench/main.exe -- experiments e15  # selected numbered experiments
     dune exec bench/main.exe -- e3 e5        # selected experiments
     dune exec bench/main.exe -- micro        # bechamel micro-benchmarks
     dune exec bench/main.exe -- bench-json   # planner ablation -> BENCH_planner.json
     dune exec bench/main.exe -- bench-json --tiny  # CI smoke workload
     dune exec bench/main.exe -- wire-json    # wire ablation -> BENCH_wire.json (--tiny: BENCH_wire_tiny.json)
     dune exec bench/main.exe -- chaos-json   # fault-injection sweep -> BENCH_chaos.json
     dune exec bench/main.exe -- chaos-json --durable  # same sweep with WAL durability on
     dune exec bench/main.exe -- recovery-json # crash-recovery bench -> BENCH_recovery.json
     dune exec bench/main.exe -- pushdown-json # constraint pushdown ablation -> BENCH_pushdown.json
     dune exec bench/main.exe -- sub-json     # standing-query maintenance -> BENCH_sub.json
     dune exec bench/main.exe -- scale-json   # storage-engine scale bench -> BENCH_scale.json
     dune exec bench/main.exe -- dict-json    # zone-map + dictionary bench -> BENCH_dict.json
     dune exec bench/main.exe -- --seed N ..  # reseed workload + fault schedule
     dune exec bench/main.exe -- --csv DIR .. # also write each table as CSV *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tiny = ref false in
  let seed = ref 1500 in
  let durable = ref false in
  let rec extract acc = function
    | "--csv" :: dir :: rest ->
        (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Tables.csv_dir := Some dir;
        extract acc rest
    | "--tiny" :: rest ->
        tiny := true;
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
      ("bench-json", fun () -> Planner_bench.run ~tiny:!tiny ());
      ("wire-json", fun () -> Wire_bench.run ~tiny:!tiny ());
      ("chaos-json", fun () -> Chaos_bench.run ~tiny:!tiny ~seed:!seed ~durable:!durable ());
      ("recovery-json", fun () -> Recovery_bench.run ~tiny:!tiny ~seed:!seed ());
      ("pushdown-json", fun () -> Pushdown_bench.run ~tiny:!tiny ());
      ("sub-json", fun () -> Sub_bench.run ~tiny:!tiny ());
      ("scale-json", fun () -> Scale_bench.run ~tiny:!tiny ());
      ("dict-json", fun () -> Dict_bench.run ~tiny:!tiny ~seed:!seed ());
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
