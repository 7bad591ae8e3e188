(* Incremental global updates: a link ships only the rows added since
   its watermark, every invalidation forces a full evaluation, and a
   network updated round after round holds what a fresh network holding
   every fact so far holds after one update. *)

open Helpers
module System = Codb_core.System
module Node = Codb_core.Node
module Report = Codb_core.Report
module Watermark = Codb_core.Watermark
module Wrapper = Codb_core.Wrapper
module Topology = Codb_core.Topology
module Network = Codb_net.Network
module Peer_id = Codb_net.Peer_id

let chain_config =
  {|
node n0 { relation data(k: int, v: string); }
node n1 { relation data(k: int, v: string); fact data(1, "a"); }
node n2 { relation data(k: int, v: string); fact data(2, "b"); }
rule r01 at n0: data(x, y) <- n1: data(x, y);
rule r12 at n1: data(x, y) <- n2: data(x, y);
|}

let marks sys name rule = Watermark.find (System.node sys name).Node.watermarks rule

let check_marks msg expected actual =
  Alcotest.(check (option (array int))) msg expected actual

let report sys uid = Option.get (Report.update_report (System.snapshots sys) uid)

let has sys name tuple =
  Relation.mem (Database.relation (System.node sys name).Node.store "data") tuple

let test_direct_insert_is_shipped () =
  let sys = System.build_exn (parse_config chain_config) in
  let _ = System.run_update sys ~initiator:"n0" in
  check_marks "n1 covered its two rows" (Some [| 2 |]) (marks sys "n1" "r01");
  check_marks "n2 covered its row" (Some [| 1 |]) (marks sys "n2" "r12");
  ignore (Database.insert (System.node sys "n2").Node.store "data" (tup [ i 3; s "c" ]));
  let u2 = System.run_update sys ~initiator:"n0" in
  Alcotest.(check bool) "the insert reached n0" true (has sys "n0" (tup [ i 3; s "c" ]));
  let r = report sys u2 in
  Alcotest.(check int) "only the new row moved" 2 r.Report.ur_new_tuples;
  Alcotest.(check int) "no duplicate shipped" 0 r.Report.ur_dup_suppressed;
  check_marks "n2's mark moved past the insert" (Some [| 2 |]) (marks sys "n2" "r12")

(* Run until [name] holds a state for [uid]: it has just been
   contacted. *)
let run_until_contacted sys name uid =
  let n = System.node sys name in
  while Node.update_state n uid = None do
    ignore (System.run ~max_events:1 sys : int)
  done

(* Started from n2, the update reaches n1 from n2, so r01's importer n0
   is not n1's engagement parent and r01 is served eagerly: at first
   contact, then on each arrival.  A row inserted at n1 in between is
   not shipped by this update, and n1's mark stays below it instead of
   advancing past the rows n2 delivers. *)
let test_mid_update_insert_reships_from_its_gap () =
  let sys = System.build_exn (parse_config chain_config) in
  let uid = System.start_update sys ~initiator:"n2" in
  run_until_contacted sys "n1" uid;
  Alcotest.(check bool) "n2's row not there yet" false
    (has sys "n1" (tup [ i 2; s "b" ]));
  ignore (Database.insert (System.node sys "n1").Node.store "data" (tup [ i 9; s "z" ]));
  let _ = System.run sys in
  Alcotest.(check bool) "n2's row forwarded" true (has sys "n0" (tup [ i 2; s "b" ]));
  Alcotest.(check bool) "the gap row was not" false (has sys "n0" (tup [ i 9; s "z" ]));
  check_marks "n1's mark stays at the gap" (Some [| 1 |]) (marks sys "n1" "r01");
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check bool) "re-shipped from the gap" true
    (has sys "n0" (tup [ i 9; s "z" ]));
  check_marks "then covered" (Some [| 3 |]) (marks sys "n1" "r01")

(* Started from n0, n1's parent is r01's importer: r01 is served once,
   when it closes, from the store as it stands then.  A row inserted at
   n1 mid-update rides that serve, in the same update, and each row
   carries the hops of the rows it covers. *)
let test_mid_update_insert_rides_the_lazy_serve () =
  let sys = System.build_exn (parse_config chain_config) in
  let uid = System.start_update sys ~initiator:"n0" in
  run_until_contacted sys "n1" uid;
  ignore (Database.insert (System.node sys "n1").Node.store "data" (tup [ i 9; s "z" ]));
  let _ = System.run sys in
  List.iter
    (fun t -> Alcotest.(check bool) "at n0" true (has sys "n0" t))
    [ tup [ i 1; s "a" ]; tup [ i 2; s "b" ]; tup [ i 9; s "z" ] ];
  check_marks "n1's mark covers the insert" (Some [| 3 |]) (marks sys "n1" "r01");
  let hops t =
    match Node.explain (System.node sys "n0") ~rel:"data" t with
    | Some (Codb_core.Lineage.Imported route) -> route.Codb_core.Lineage.li_hops
    | _ -> Alcotest.fail "expected an import"
  in
  Alcotest.(check (list int)) "hops per row" [ 1; 2; 1 ]
    (List.map hops [ tup [ i 1; s "a" ]; tup [ i 2; s "b" ]; tup [ i 9; s "z" ] ])

let twin_updates invalidate =
  let sys = System.build_exn (parse_config chain_config) in
  let _ = System.run_update sys ~initiator:"n0" in
  invalidate sys;
  report sys (System.run_update sys ~initiator:"n0")

let test_rules_file_forces_full_evaluation () =
  let calm = twin_updates ignore in
  Alcotest.(check int) "watermarked: nothing re-shipped" 0 calm.Report.ur_dup_suppressed;
  let rewired =
    twin_updates (fun sys ->
        System.broadcast_rules sys (System.config sys);
        check_marks "n1 forgot its mark" None (marks sys "n1" "r01");
        check_marks "n2 forgot its mark" None (marks sys "n2" "r12"))
  in
  (* n1 re-ships both rows to n0, n2 its row to n1 *)
  Alcotest.(check int) "full evaluation everywhere" 3 rewired.Report.ur_dup_suppressed

let test_pipe_flap_forces_full_evaluation () =
  let flapped =
    twin_updates (fun sys ->
        let p = Peer_id.of_string in
        Network.disconnect (System.net sys) (p "n1") (p "n2");
        Network.connect (System.net sys) (p "n1") (p "n2");
        check_marks "the flapped link forgot its mark" None (marks sys "n2" "r12");
        check_marks "the other link kept its mark" (Some [| 2 |]) (marks sys "n1" "r01"))
  in
  Alcotest.(check int) "only the flapped link re-ships" 1 flapped.Report.ur_dup_suppressed

(* --- the property (qcheck) -------------------------------------------- *)

module Q2 = QCheck2
module Gen = QCheck2.Gen

let gen_case =
  let open Gen in
  let* shape =
    oneofl
      [
        Topology.Chain; Topology.Ring; Topology.Star_in; Topology.Star_out;
        Topology.Binary_tree; Topology.Clique;
      ]
  in
  let* n = int_range 2 4 in
  let* seed = int_range 0 10000 in
  let* join_frac = oneofl [ 0.0; 0.5 ] in
  let gen_insert =
    let* at = int_range 0 (n - 1) in
    let* rel = oneofl [ "fact0"; "fact1"; "link" ] in
    let* k = int_range 0 12 in
    let* v = int_range 0 12 in
    return (Topology.node_name at, rel, tup [ i k; i v ])
  in
  let* rounds = list_size (int_range 1 3) (list_size (int_range 1 4) gen_insert) in
  return (shape, n, seed, join_frac, rounds)

let print_case (shape, n, seed, join_frac, rounds) =
  Printf.sprintf "shape=%s n=%d seed=%d join_frac=%g rounds=[%s]"
    (Topology.shape_name shape) n seed join_frac
    (String.concat " | "
       (List.map
          (fun inserts ->
            String.concat ", "
              (List.map
                 (fun (at, rel, t) -> Printf.sprintf "%s:%s%s" at rel (Tuple.to_string t))
                 inserts))
          rounds))

let certain_store sys name =
  let store = (System.node sys name).Node.store in
  List.map
    (fun rel -> (rel, sorted_tuples (Eval.certain (Database.tuples store rel))))
    (Database.rel_names store)

let saturated sys =
  List.for_all
    (fun (r : Config.rule_decl) ->
      let source = System.node sys r.Config.source in
      let importer = System.node sys r.Config.importer in
      let head = r.Config.rule_query.Query.head.Atom.rel in
      let target = Database.relation importer.Node.store head in
      List.for_all (Relation.subsumed target)
        (Wrapper.eval_rule_full source.Node.store r))
    (System.config sys).Config.rules

let prop_incremental_equals_fresh =
  Q2.Test.make ~name:"incremental rounds = one update of a fresh network" ~count:150
    ~print:print_case gen_case (fun (shape, n, seed, join_frac, rounds) ->
      let spec =
        { Codb_workload.Glavgen.default_spec with
          Codb_workload.Glavgen.tuples_per_relation = 6; join_frac }
      in
      let cfg =
        Codb_workload.Glavgen.generate ~spec ~seed ~edges:(Topology.edges shape ~n) ~n ()
      in
      let sys = System.build_exn cfg in
      let _ = System.run_update sys ~initiator:"n0" in
      let inserted = ref [] in
      List.for_all
        (fun inserts ->
          List.iter
            (fun (at, rel, t) -> ignore (System.insert_fact sys ~at ~rel t : bool))
            inserts;
          inserted := !inserted @ inserts;
          let _ = System.run_update sys ~initiator:"n0" in
          let fresh = System.build_exn cfg in
          List.iter
            (fun (at, rel, t) -> ignore (System.insert_fact fresh ~at ~rel t : bool))
            !inserted;
          let _ = System.run_update fresh ~initiator:"n0" in
          saturated sys
          && List.for_all
               (fun name -> certain_store sys name = certain_store fresh name)
               (System.node_names sys))
        rounds)

let suite =
  [
    Alcotest.test_case "a direct insert between updates is shipped" `Quick
      test_direct_insert_is_shipped;
    Alcotest.test_case "a mid-update insert re-ships from its gap" `Quick
      test_mid_update_insert_reships_from_its_gap;
    Alcotest.test_case "a mid-update insert rides the lazy serve" `Quick
      test_mid_update_insert_rides_the_lazy_serve;
    Alcotest.test_case "a rules file forces a full evaluation" `Quick
      test_rules_file_forces_full_evaluation;
    Alcotest.test_case "a pipe flap forces a full evaluation" `Quick
      test_pipe_flap_forces_full_evaluation;
    QCheck_alcotest.to_alcotest prop_incremental_equals_fresh;
  ]
