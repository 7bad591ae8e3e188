(* Relevance-bounded diffusion ablation (experiment E17 and
   `make pushdown-bench`).

   The same query posed twice over the same network — once with the
   seed behaviour (sub-requests name only the rule, every responder
   ships its full derivable stream) and once with constraint pushdown
   ([Options.pushdown]), where each sub-request carries the strongest
   constraint set the root query implies for that relation and each
   responder folds it into its rule body, withholds what the filter
   rules out and re-specialises its own fan-out.

   Two query classes over two shapes:

     selective   a constant binds the key column — the constraint
                 prunes almost everything at the sources, so answer
                 traffic must collapse;
     open        no constraint to push — pushdown must be a strict
                 no-op on the wire.

   Pushdown must never change the answer set (checked tuple-for-tuple
   modulo marked-null renaming) or the completeness flag, must never
   increase answer bytes, and on the selective workloads must cut
   answer bytes at least in half.  Violations abort the benchmark, so
   the runtest gate, which runs the tiny workload and pins its counts,
   fails. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Parser = Codb_cq.Parser
module Datagen = Codb_workload.Datagen

type workload = { wl_nodes : int; wl_tuples : int; wl_domain : int }

let workload ~tiny =
  if tiny then { wl_nodes = 4; wl_tuples = 30; wl_domain = 20 }
  else { wl_nodes = 8; wl_tuples = 120; wl_domain = 40 }

let shapes = [ Topology.Chain; Topology.Clique ]

let queries =
  [ ("selective", "o(y) <- data(3, y)"); ("open", "o(x, y) <- data(x, y)") ]

let config wl shape =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = wl.wl_tuples;
      profile = { Datagen.default_profile with Datagen.domain_size = wl.wl_domain };
    }
  in
  Topology.generate ~params ~seed:1700 shape ~n:wl.wl_nodes

let parse text =
  match Parser.parse_query text with Ok q -> q | Error e -> failwith e

(* Marked-null ids depend on arrival order, which pushdown legitimately
   changes; rename them per tuple in first-occurrence order so answer
   sets compare across runs. *)
let canonical_nulls t =
  let seen = Hashtbl.create 4 in
  Array.map
    (function
      | Value.Null { Value.null_id; _ } ->
          let idx =
            match Hashtbl.find_opt seen null_id with
            | Some idx -> idx
            | None ->
                let idx = Hashtbl.length seen in
                Hashtbl.add seen null_id idx;
                idx
          in
          Value.Str (Printf.sprintf "\x00null%d" idx)
      | (Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ | Value.Hole _) as v
        ->
          v)
    t

let canonical_answers answers =
  List.sort Tuple.compare (List.map canonical_nulls answers)

type row = {
  r_shape : Topology.shape;
  r_query : string;  (* class name from [queries] *)
  r_pushdown : bool;
  r_answers : Tuple.t list;  (* canonicalised *)
  r_complete : bool;
  r_bytes_in : int;
  r_data_msgs : int;
  r_pushed : int;
  r_filtered : int;
}

let measure wl shape (qname, qtext) pushdown =
  let opts = { Options.default with Options.pushdown } in
  let sys = System.build_exn ~opts (config wl shape) in
  let outcome = System.run_query sys ~at:"n0" (parse qtext) in
  let pr =
    Option.get (Report.pushdown_report (System.snapshots sys) outcome.System.qo_id)
  in
  {
    r_shape = shape;
    r_query = qname;
    r_pushdown = pushdown;
    r_answers = canonical_answers outcome.System.qo_answers;
    r_complete = outcome.System.qo_complete;
    r_bytes_in = pr.Report.pr_bytes_in;
    r_data_msgs = pr.Report.pr_data_msgs;
    r_pushed = pr.Report.pr_pushed;
    r_filtered = pr.Report.pr_filtered_at_source;
  }

let ratio base own = if own > 0 then float_of_int base /. float_of_int own else nan

let check_invariants pairs =
  List.iter
    (fun (base, push) ->
      let where =
        Printf.sprintf "%s/%s" (Topology.shape_name base.r_shape) base.r_query
      in
      if not (List.equal Tuple.equal base.r_answers push.r_answers) then
        failwith (Printf.sprintf "pushdown changed the answers on %s" where);
      if base.r_complete <> push.r_complete then
        failwith (Printf.sprintf "pushdown changed completeness on %s" where);
      if push.r_bytes_in > base.r_bytes_in then
        failwith
          (Printf.sprintf "pushdown increased answer bytes on %s: %d B > %d B" where
             push.r_bytes_in base.r_bytes_in);
      if String.equal base.r_query "selective" && push.r_bytes_in * 2 > base.r_bytes_in
      then
        failwith
          (Printf.sprintf
             "selective pushdown below the 2x bar on %s: %d B vs %d B baseline" where
             push.r_bytes_in base.r_bytes_in))
    pairs

(* Pairs of (baseline, pushdown) runs in shape-major order. *)
let measure_all ~tiny () =
  let wl = workload ~tiny in
  let pairs =
    List.concat_map
      (fun shape ->
        List.map
          (fun q -> (measure wl shape q false, measure wl shape q true))
          queries)
      shapes
  in
  check_invariants pairs;
  (wl, pairs)

let print_table wl pairs =
  Tables.print
    ~title:
      (Printf.sprintf
         "E17 - constraint pushdown (chain & clique N=%d, %d tuples/node, %d key values)"
         wl.wl_nodes wl.wl_tuples wl.wl_domain)
    ~header:
      [
        "shape"; "query"; "pushdown"; "answers"; "bytes in"; "data msgs";
        "constrained reqs"; "filtered at src"; "bytes vs off";
      ]
    (List.concat_map
       (fun (base, push) ->
         List.map
           (fun r ->
             [
               Topology.shape_name r.r_shape;
               r.r_query;
               (if r.r_pushdown then "on" else "off");
               Tables.i0 (List.length r.r_answers);
               Tables.i0 r.r_bytes_in;
               Tables.i0 r.r_data_msgs;
               Tables.i0 r.r_pushed;
               Tables.i0 r.r_filtered;
               (if r.r_pushdown then
                  Printf.sprintf "%.2fx" (ratio base.r_bytes_in r.r_bytes_in)
                else "1.00x");
             ])
           [ base; push ])
       pairs)

(* The counted part of the tiny run, for the runtest gate. *)
let gate () =
  let wl, pairs = measure_all ~tiny:true () in
  let side r =
    Emit.(
      Obj
        [
          ("bytes_in", Int r.r_bytes_in); ("data_msgs", Int r.r_data_msgs);
          ("constrained_requests", Int r.r_pushed);
          ("filtered_at_source", Int r.r_filtered);
        ])
  in
  Emit.(
    Obj
      [
        ( "workload",
          Obj
            [
              ("nodes", Int wl.wl_nodes); ("tuples_per_node", Int wl.wl_tuples);
              ("domain", Int wl.wl_domain);
            ] );
        ( "runs",
          List
            (List.map
               (fun (base, push) ->
                 Obj
                   [
                     ("shape", Str (Topology.shape_name base.r_shape));
                     ("query", Str base.r_query);
                     ("answers", Int (List.length base.r_answers));
                     ("complete", Bool base.r_complete); ("baseline", side base);
                     ("pushdown", side push);
                     ("bytes_reduction", Fixed (2, ratio base.r_bytes_in push.r_bytes_in));
                   ])
               pairs) );
      ])

let run () =
  let wl, pairs = measure_all ~tiny:false () in
  print_table wl pairs
