(* A living network: continuous inserts, query-dependent updates and
   streaming results.

   Three field stations collect sensor readings; a monitoring centre
   integrates them through GLAV rules (station ids become part of the
   centre's schema).  The centre uses the paper's *query-dependent
   update requests*: instead of a network-wide global update it
   materialises exactly what its dashboard query needs, whenever it
   needs it.  New readings inserted between rounds are picked up
   incrementally: each link remembers the rows it already shipped (its
   watermark), so only the rows added since travel.
   Finally an ad-hoc diagnostic query streams its results as they
   arrive from the stations.

   Run with: dune exec examples/sensor_network.exe *)

module System = Codb_core.System
module Report = Codb_core.Report
module Parser = Codb_cq.Parser
module Tuple = Codb_relalg.Tuple
module Value = Codb_relalg.Value

let network =
  {|
node centre {
  relation reading(station: string, sensor: int, temp: int);
  relation alert(station: string, sensor: int);
}
node alpha {
  relation measure(sensor: int, temp: int);
  fact measure(1, 18); fact measure(2, 21);
}
node beta {
  relation measure(sensor: int, temp: int);
  fact measure(1, 35); fact measure(2, 19);
}
node gamma mediator {
  relation measure(sensor: int, temp: int);
}
// the mediator relays a remote station that the centre cannot reach
node delta { relation measure(sensor: int, temp: int); fact measure(9, 40); }

rule from_alpha at centre: reading("alpha", s, t) <- alpha: measure(s, t);
rule from_beta  at centre: reading("beta", s, t) <- beta: measure(s, t);
rule from_gamma at centre: reading("gamma", s, t) <- gamma: measure(s, t);
rule relay      at gamma:  measure(s, t) <- delta: measure(s, t);
rule hot_alpha  at centre: alert("alpha", s) <- alpha: measure(s, t), t >= 30;
rule hot_beta   at centre: alert("beta", s) <- beta: measure(s, t), t >= 30;
|}

let parse_or_die text =
  match Parser.load_config text with
  | Ok cfg -> cfg
  | Error errors ->
      List.iter prerr_endline errors;
      exit 1

let q text =
  match Parser.parse_query text with Ok q -> q | Error e -> failwith e

let dashboard = q {|d(st, s, t) <- reading(st, s, t)|}

let alerts = q {|a(st, s) <- alert(st, s)|}

let refresh sys label =
  let uid = System.run_scoped_update sys ~at:"centre" dashboard in
  let _ = System.run_scoped_update sys ~at:"centre" alerts in
  let report = Option.get (Report.update_report (System.snapshots sys) uid) in
  Fmt.pr "[%s] refresh moved %d tuple(s) in %d message(s)@." label
    report.Report.ur_new_tuples report.Report.ur_data_msgs;
  let readings = System.local_answers sys ~at:"centre" dashboard in
  let alerts = System.local_answers sys ~at:"centre" alerts in
  Fmt.pr "  dashboard: %d reading(s), %d alert(s)@." (List.length readings)
    (List.length alerts);
  List.iter (fun t -> Fmt.pr "  ALERT %a@." Tuple.pp t) alerts

let () =
  let sys = System.build_exn (parse_or_die network) in

  (* Round 1: first materialisation — everything is new. *)
  refresh sys "round 1";

  (* Between rounds, stations keep measuring. *)
  ignore
    (System.insert_fact sys ~at:"alpha" ~rel:"measure"
       [| Value.Int 3; Value.Int 31 |]);
  ignore
    (System.insert_fact sys ~at:"delta" ~rel:"measure"
       [| Value.Int 10; Value.Int 12 |]);

  (* Round 2: only the two new readings (and the new alert) travel. *)
  refresh sys "round 2";

  (* Round 3: nothing changed, nothing moves. *)
  refresh sys "round 3";

  (* An ad-hoc diagnostic, streaming answers as they arrive: the
     centre's already-materialised readings stream immediately, and
     anything newer would follow as the stations respond. *)
  Fmt.pr "@.ad-hoc at centre, streaming:@.";
  let outcome =
    System.run_query sys ~at:"centre"
      (q {|hot(st, s, t) <- reading(st, s, t), t >= 30|})
      ~on_partial:(fun batch ->
        List.iter (fun t -> Fmt.pr "  ... %a@." Tuple.pp t) batch)
  in
  Fmt.pr "done: %d hot reading(s) network-wide@."
    (List.length outcome.System.qo_answers)
