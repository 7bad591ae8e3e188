(* Standing-query maintenance ablation (experiment E18 and
   `make sub-bench`).

   The same standing queries armed twice over the same chain — once
   with incremental maintenance (store deltas fed through the
   semi-naive delta evaluator, only genuinely new answers pushed) and
   once with [Options.sub_naive], where every store delta triggers a
   from-scratch re-evaluation whose full answer set is re-pushed and
   absorbed by the mirror's set semantics.

   Three query classes, one remote subscriber (n1 mirroring a host
   subscription at n0, so push traffic is on the wire) plus a local
   subscriber at the host:

     selective   a constant binds the key column of a self-join —
                 re-evaluation rescans the whole relation per delta
                 while delta evaluation touches only matching tuples;
     join        open self-join — the probe gap without selectivity;
     open        single atom — both modes scan alike, but naive
                 re-pushes the full answer set on every delta.

   Naive mode must never change any answer set (host or mirror,
   checked tuple-for-tuple), incremental must never push more bytes,
   and on the join workloads incremental must spend at most half the
   evaluator work and on the selective workload at most half the
   bytes per answer.  Violations abort the benchmark, so the runtest
   gate, which runs the tiny workload and pins its counts, fails. *)

module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Report = Codb_core.Report
module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Parser = Codb_cq.Parser
module Datagen = Codb_workload.Datagen

type workload = {
  wl_nodes : int;
  wl_tuples : int;
  wl_domain : int;
  wl_rounds : int;  (* update rounds after the seed *)
  wl_inserts : int;  (* fresh facts per round, at the chain tail *)
}

let workload ~tiny =
  if tiny then
    { wl_nodes = 3; wl_tuples = 16; wl_domain = 8; wl_rounds = 3; wl_inserts = 6 }
  else
    { wl_nodes = 5; wl_tuples = 48; wl_domain = 12; wl_rounds = 5; wl_inserts = 10 }

(* Every class is keyed so the gates are meaningful: the selective and
   join classes need the self-join probe gap, the open class shows the
   wire gap alone. *)
let queries =
  [
    ("selective", "o(v, w) <- data(2, v), data(2, w)");
    ("join", "o(k, v, w) <- data(k, v), data(k, w)");
    ("open", "o(k, v) <- data(k, v)");
  ]

let config wl =
  let params =
    {
      Topology.default_params with
      Topology.tuples_per_node = wl.wl_tuples;
      profile = { Datagen.default_profile with Datagen.domain_size = wl.wl_domain };
    }
  in
  Topology.generate ~params ~seed:1800 Topology.Chain ~n:wl.wl_nodes

let parse text =
  match Parser.parse_query text with Ok q -> q | Error e -> failwith e

type row = {
  r_query : string;  (* class name from [queries] *)
  r_naive : bool;
  r_host_answers : Tuple.t list;
  r_mirror_answers : Tuple.t list;
  r_probes : int;
  r_scans : int;
  r_push_msgs : int;
  r_bytes : int;
  r_adds : int;
  r_retracts : int;
  r_bpa : float;  (* push bytes per delivered answer tuple *)
}

let measure wl (qname, qtext) naive =
  let opts =
    {
      Options.default with
      Options.subscriptions = true;
      sub_naive = naive;
      pushdown = true;
    }
  in
  let sys = System.build_exn ~opts (config wl) in
  let q = parse qtext in
  let host_id =
    match System.subscribe sys ~at:"n0" q with
    | Ok id -> id
    | Error e -> failwith (Printf.sprintf "subscribe %s: %s" qname e)
  in
  let mirror_id =
    match System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" q with
    | Ok id -> id
    | Error e -> failwith (Printf.sprintf "subscribe_remote %s: %s" qname e)
  in
  ignore (System.run sys);
  (* Rounds of fresh facts, alternating between the chain tail (the
     update fix-point carries them to the host in batches) and the
     host itself (each local write is its own delta event, so naive
     mode pays a from-scratch re-evaluation per insert); half the
     inserts hit the selective key so every class keeps gaining
     answers. *)
  let tail = Topology.node_name (wl.wl_nodes - 1) in
  for round = 1 to wl.wl_rounds do
    for i = 1 to wl.wl_inserts do
      let k = if i mod 2 = 0 then 2 else i mod wl.wl_domain in
      let v = Printf.sprintf "r%d-%d" round i in
      let at = if i mod 2 = 0 then "n0" else tail in
      ignore
        (System.insert_fact sys ~at ~rel:"data" [| Value.Int k; Value.Str v |])
    done;
    ignore (System.run_update sys ~initiator:"n0");
    ignore (System.run sys)
  done;
  let answers at id =
    match System.subscription_answers sys ~at id with
    | Some ts -> List.sort Tuple.compare ts
    | None -> failwith (Printf.sprintf "subscription %s vanished" id)
  in
  let sr = Report.sub_report (System.snapshots sys) in
  let host_answers = answers "n0" host_id in
  {
    r_query = qname;
    r_naive = naive;
    r_host_answers = host_answers;
    r_mirror_answers = answers "n1" mirror_id;
    r_probes = sr.Report.sr_probes;
    r_scans = sr.Report.sr_scans;
    r_push_msgs = sr.Report.sr_push_msgs;
    r_bytes = sr.Report.sr_bytes;
    r_adds = sr.Report.sr_adds;
    r_retracts = sr.Report.sr_retracts;
    (* Bytes per *distinct* answer: both modes end on the same answer
       set, so this is the wire cost of materialising it remotely.
       (Dividing by pushed adds instead would flatter naive mode,
       whose redundant re-pushes inflate the denominator.) *)
    r_bpa =
      (match host_answers with
      | [] -> 0.
      | _ :: _ ->
          float_of_int sr.Report.sr_bytes
          /. float_of_int (List.length host_answers));
  }

let work r = r.r_probes + r.r_scans
let ratio base own = if own > 0 then float_of_int base /. float_of_int own else nan
let fratio base own = if own > 0. then base /. own else nan

let check_invariants pairs =
  List.iter
    (fun (incr, naive) ->
      let where = incr.r_query in
      if not (List.equal Tuple.equal incr.r_host_answers naive.r_host_answers) then
        failwith (Printf.sprintf "naive re-eval changed host answers on %s" where);
      if not (List.equal Tuple.equal incr.r_mirror_answers naive.r_mirror_answers)
      then
        failwith (Printf.sprintf "naive re-eval changed mirror answers on %s" where);
      if not (List.equal Tuple.equal incr.r_host_answers incr.r_mirror_answers)
      then failwith (Printf.sprintf "mirror diverged from host on %s" where);
      if incr.r_bytes > naive.r_bytes then
        failwith
          (Printf.sprintf "incremental pushed more bytes on %s: %d B > %d B" where
             incr.r_bytes naive.r_bytes);
      if
        (String.equal where "selective" || String.equal where "join")
        && work incr * 2 > work naive
      then
        failwith
          (Printf.sprintf
             "incremental below the 2x work bar on %s: %d probes+scans vs %d naive"
             where (work incr) (work naive));
      if String.equal where "selective" && incr.r_bpa *. 2. > naive.r_bpa then
        failwith
          (Printf.sprintf
             "incremental below the 2x bytes-per-answer bar on %s: %.1f vs %.1f"
             where incr.r_bpa naive.r_bpa))
    pairs

(* Pairs of (incremental, naive) runs in query order. *)
let measure_all ~tiny () =
  let wl = workload ~tiny in
  let pairs =
    List.map (fun q -> (measure wl q false, measure wl q true)) queries
  in
  check_invariants pairs;
  (wl, pairs)

let print_table wl pairs =
  Tables.print
    ~title:
      (Printf.sprintf
         "E18 - standing-query maintenance (chain N=%d, %d tuples/node, %d \
          update rounds)"
         wl.wl_nodes wl.wl_tuples wl.wl_rounds)
    ~header:
      [
        "query"; "mode"; "answers"; "adds"; "probes+scans"; "push msgs";
        "push bytes"; "B/answer"; "work vs naive";
      ]
    (List.concat_map
       (fun (incr, naive) ->
         List.map
           (fun r ->
             [
               r.r_query;
               (if r.r_naive then "naive" else "incremental");
               Tables.i0 (List.length r.r_host_answers);
               Tables.i0 r.r_adds;
               Tables.i0 (work r);
               Tables.i0 r.r_push_msgs;
               Tables.i0 r.r_bytes;
               Printf.sprintf "%.1f" r.r_bpa;
               (if r.r_naive then "1.00x"
                else Printf.sprintf "%.2fx" (ratio (work naive) (work r)));
             ])
           [ incr; naive ])
       pairs)

(* The counted part of the tiny run, for the runtest gate. *)
let gate () =
  let wl, pairs = measure_all ~tiny:true () in
  let side r =
    Emit.(
      Obj
        [
          ("probes", Int r.r_probes); ("scans", Int r.r_scans);
          ("push_msgs", Int r.r_push_msgs); ("bytes", Int r.r_bytes); ("adds", Int r.r_adds);
          ("retracts", Int r.r_retracts); ("bytes_per_answer", Fixed (2, r.r_bpa));
        ])
  in
  Emit.(
    Obj
      [
        ( "workload",
          Obj
            [
              ("nodes", Int wl.wl_nodes); ("tuples_per_node", Int wl.wl_tuples);
              ("domain", Int wl.wl_domain); ("rounds", Int wl.wl_rounds);
              ("inserts_per_round", Int wl.wl_inserts);
            ] );
        ( "runs",
          List
            (List.map
               (fun (incr, naive) ->
                 Obj
                   [
                     ("query", Str incr.r_query);
                     ("answers", Int (List.length incr.r_host_answers));
                     ("incremental", side incr); ("naive", side naive);
                     ("work_reduction", Fixed (2, ratio (work naive) (work incr)));
                     ("bytes_per_answer_reduction", Fixed (2, fratio naive.r_bpa incr.r_bpa));
                   ])
               pairs) );
      ])

let run () =
  let wl, pairs = measure_all ~tiny:false () in
  print_table wl pairs
