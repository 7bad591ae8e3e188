(* Standing queries: registration and validation, incremental answer
   maintenance against from-scratch re-evaluation, push-based delivery
   to remote mirrors (one message per delta), crash teardown / restart
   re-arm, and the qcheck equivalence property with and without the
   update path's sent cache and under chaos. *)

open Helpers
module Q2 = QCheck2
module Gen = QCheck2.Gen
module System = Codb_core.System
module Topology = Codb_core.Topology
module Options = Codb_core.Options
module Stats = Codb_core.Stats
module Node = Codb_core.Node
module Sub = Codb_sub.Subscription
module Mirror = Codb_sub.Mirror
module Datagen = Codb_workload.Datagen

let sub_opts ?(base = Options.default) () = { base with Options.subscriptions = true }

let chain ?(seed = 5) n = Topology.generate ~seed Topology.Chain ~n

let q_all = "o(k, v) <- data(k, v)"

let q_selective = "o(v) <- data(2, v)"

(* a self-join: every store change pairs the new rows with the whole
   relation, the case a delta pass gets wrong first *)
let q_join = "o(k, v, w) <- data(k, v), data(k, w)"

let sub_stats sys name = Stats.sub (System.node sys name).Node.stats

let answers_of sys ~at id =
  match System.subscription_answers sys ~at id with
  | Some ts -> ts
  | None -> Alcotest.failf "subscription %s unknown at %s" id at

let check_tracks sys ~at id query msg =
  check_tuples msg
    (System.local_answers sys ~at (parse_query query))
    (answers_of sys ~at id)

(* --- registration ---------------------------------------------------- *)

let test_disabled_by_default () =
  let sys = System.build_exn (chain 2) in
  (match System.subscribe sys ~at:"n0" (parse_query q_all) with
  | Ok _ -> Alcotest.fail "subscribe accepted with subscriptions off"
  | Error e -> Alcotest.(check bool) "says disabled" true
      (String.length e > 0));
  let _ = System.run_update sys ~initiator:"n0" in
  let zero = Stats.sub (Stats.create (Codb_net.Peer_id.of_string "zero")) in
  List.iter
    (fun snap ->
      Alcotest.(check bool) "sub counters untouched when off" true
        (snap.Stats.snap_sub = zero))
    (System.snapshots sys)

let test_register_seeds_and_unregister () =
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 2) in
  let seed = ref [] in
  let id =
    match
      System.subscribe sys ~at:"n0" (parse_query q_all) ~on_delta:(fun d ->
          seed := boxed d.Sub.d_adds @ !seed)
    with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  check_tuples "seed delta = current answers" (System.local_answers sys ~at:"n0" (parse_query q_all)) !seed;
  check_tracks sys ~at:"n0" id q_all "registry answers match";
  Alcotest.(check bool) "unregister" true (System.unsubscribe sys ~at:"n0" id);
  Alcotest.(check bool) "gone" true (System.subscription_answers sys ~at:"n0" id = None);
  Alcotest.(check bool) "second unregister is false" false
    (System.unsubscribe sys ~at:"n0" id)

let test_validation () =
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 2) in
  (match System.subscribe sys ~at:"n0" (parse_query "o(x) <- nosuch(x)") with
  | Ok _ -> Alcotest.fail "unknown relation accepted"
  | Error e -> Alcotest.(check bool) "names the relation" true
      (String.length e > 0 && String.sub e 0 7 = "unknown"));
  (match System.subscribe sys ~at:"n0" (parse_query "o(k, w) <- data(k, v)") with
  | Ok _ -> Alcotest.fail "existential head accepted"
  | Error _ -> ());
  for k = 1 to Node.max_subscriptions do
    match System.subscribe sys ~at:"n0" (parse_query q_all) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "subscribe %d: %s" k e
  done;
  (match System.subscribe sys ~at:"n0" (parse_query q_selective) with
  | Ok _ -> Alcotest.fail "limit not enforced locally"
  | Error _ -> ());
  (* the host refuses a registration over the wire the same way *)
  (match System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" (parse_query q_selective) with
  | Error e -> Alcotest.failf "subscribe_remote: %s" e
  | Ok id -> (
      let _ = System.run sys in
      match System.mirror sys ~at:"n1" id with
      | Some m ->
          Alcotest.(check bool) "limit not enforced over the wire" false (Mirror.accepted m);
          Alcotest.(check bool) "reason names the limit" true
            (match Mirror.rejected m with
            | Some why -> String.starts_with ~prefix:"subscription limit reached" why
            | None -> false)
      | None -> Alcotest.failf "no mirror %s at n1" id));
  let sb = sub_stats sys "n0" in
  Alcotest.(check int) "all registered" Node.max_subscriptions sb.Stats.sb_registered;
  Alcotest.(check int) "four rejected" 4 sb.Stats.sb_rejected

(* --- incremental maintenance ----------------------------------------- *)

let test_incremental_tracks_updates () =
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 4) in
  let deltas = ref 0 in
  let id =
    match
      System.subscribe sys ~at:"n0" (parse_query q_all) ~on_delta:(fun _ ->
          incr deltas)
    with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  let before = List.length (answers_of sys ~at:"n0" id) in
  let _ = System.run_update sys ~initiator:"n0" in
  check_tracks sys ~at:"n0" id q_all "after a global update";
  Alcotest.(check bool) "the update grew the answer set" true
    (List.length (answers_of sys ~at:"n0" id) > before);
  ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 901; s "w1" ]));
  check_tracks sys ~at:"n0" id q_all "after a local write";
  Alcotest.(check bool) "deltas were pushed, not re-seeded" true (!deltas >= 2);
  let sb = sub_stats sys "n0" in
  Alcotest.(check bool) "store deltas consumed" true (sb.Stats.sb_deltas_in > 0);
  Alcotest.(check bool) "evaluator work accounted" true (sb.Stats.sb_eval.probes + sb.Stats.sb_eval.scans > 0)

let test_import_reseeds () =
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 3) in
  let _ = System.run_update sys ~initiator:"n0" in
  let dumps = System.export_stores sys in
  let sys' = System.build_exn ~opts:(sub_opts ()) (chain ~seed:99 3) in
  let id =
    match System.subscribe sys' ~at:"n0" (parse_query q_all) with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe: %s" e
  in
  ignore (Result.get_ok (System.import_stores sys' dumps));
  check_tracks sys' ~at:"n0" id q_all "bulk import re-seeds the answers"

(* --- remote push ------------------------------------------------------ *)

let remote_pair () =
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 3) in
  let id =
    match System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" (parse_query q_all) with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe_remote: %s" e
  in
  let _ = System.run sys in
  (sys, id)

let mirror_of sys ~at id =
  match System.mirror sys ~at id with
  | Some m -> m
  | None -> Alcotest.failf "no mirror %s at %s" id at

let test_remote_push () =
  let sys, id = remote_pair () in
  let m = mirror_of sys ~at:"n1" id in
  Alcotest.(check bool) "registration accepted" true (Mirror.accepted m);
  check_tuples "seed snapshot arrived"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers m));
  ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 902; s "w2" ]));
  let _ = System.run sys in
  check_tuples "pushed delta applied"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers m));
  let _ = System.run_update sys ~initiator:"n0" in
  check_tuples "update deltas streamed to the mirror"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers m));
  Alcotest.(check bool) "several deltas arrived" true (Mirror.deltas m >= 2);
  Alcotest.(check bool) "unsubscribe" true (System.unsubscribe_remote sys ~subscriber:"n1" id);
  let _ = System.run sys in
  Alcotest.(check int) "host forgot the subscription" 1
    (sub_stats sys "n0").Stats.sb_unregistered

let test_refused_registration_marks_mirror () =
  (* the host refuses (unknown relation in the query body): the mirror
     must learn the verdict and the reason, not hang half-armed *)
  let sys = System.build_exn ~opts:(sub_opts ()) (chain 2) in
  let id =
    match
      System.subscribe_remote sys ~subscriber:"n1" ~host:"n0"
        (parse_query "o(x) <- nosuch(x)")
    with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe_remote: %s" e
  in
  let _ = System.run sys in
  let m = mirror_of sys ~at:"n1" id in
  Alcotest.(check bool) "refused" false (Mirror.accepted m);
  Alcotest.(check bool) "reason recorded" true (Mirror.rejected m <> None)

(* Each non-empty answer delta leaves the host at once as one
   [Answer_delta]: the seed and four local writes are five pushes, and
   the mirror applies each of them. *)
let test_one_push_per_delta () =
  let sys, id = remote_pair () in
  List.iteri
    (fun k v ->
      ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i (910 + k); s v ])))
    [ "a"; "b"; "c"; "d" ];
  let _ = System.run sys in
  let m = mirror_of sys ~at:"n1" id in
  let sb = sub_stats sys "n0" in
  Alcotest.(check int) "one push per delta" sb.Stats.sb_deltas_out sb.Stats.sb_push_msgs;
  Alcotest.(check int) "the seed and one push per write" 5 sb.Stats.sb_push_msgs;
  Alcotest.(check int) "the mirror applied every push" sb.Stats.sb_push_msgs (Mirror.deltas m);
  check_tuples "mirror converged"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers m))

(* --- crash / restart -------------------------------------------------- *)

let test_crash_tears_down_restart_rearms () =
  let sys, id = remote_pair () in
  System.crash_node sys "n0";
  Alcotest.(check bool) "host registry torn down" true
    ((sub_stats sys "n0").Stats.sb_torn_down > 0);
  Alcotest.(check bool) "mirror survives at the subscriber" true
    (System.mirror sys ~at:"n1" id <> None);
  System.restart_node sys "n0";
  let _ = System.run sys in
  Alcotest.(check bool) "subscriber re-armed" true
    ((sub_stats sys "n1").Stats.sb_rearmed > 0);
  check_tuples "snapshot re-seeded the mirror"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers (mirror_of sys ~at:"n1" id)));
  (* and the re-armed subscription is live again *)
  ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 905; s "w5" ]));
  let _ = System.run sys in
  check_tuples "deltas flow after the re-arm"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (boxed (Mirror.answers (mirror_of sys ~at:"n1" id)))

(* A host that restarts without its store re-seeds each mirror with
   what it still derives: answers it lost must leave the mirror too,
   even when it derives nothing (and no snapshot ships). *)
let test_restart_snapshot_replaces_mirror () =
  let q_lost = "o(v) <- data(991, v)" in
  let lost = tup [ i 991; s "x1" ] in
  let base = { Options.default with Options.durability = Options.Dur_volatile } in
  let sys = System.build_exn ~opts:(sub_opts ~base ()) (chain 2) in
  let retracted = ref [] in
  let subscribe q =
    match
      System.subscribe_remote sys ~subscriber:"n1" ~host:"n0"
        ~on_delta:(fun d -> retracted := boxed d.Sub.d_retracts @ !retracted)
        (parse_query q)
    with
    | Ok id -> id
    | Error e -> Alcotest.failf "subscribe_remote: %s" e
  in
  let all = subscribe q_all and only_lost = subscribe q_lost in
  let _ = System.run sys in
  ignore (System.insert_fact sys ~at:"n0" ~rel:"data" lost);
  let _ = System.run_update sys ~initiator:"n0" in
  Alcotest.(check bool) "the mirror saw the local write" true
    (List.mem lost (answers_of sys ~at:"n1" all));
  System.crash_node sys "n0";
  System.restart_node sys "n0";
  let _ = System.run sys in
  check_tuples "mirror = what the host still derives"
    (System.local_answers sys ~at:"n0" (parse_query q_all))
    (answers_of sys ~at:"n1" all);
  Alcotest.(check bool) "the lost answer left the mirror" false
    (List.mem lost (answers_of sys ~at:"n1" all));
  check_tuples "an empty snapshot empties the mirror" []
    (answers_of sys ~at:"n1" only_lost);
  Alcotest.(check bool) "the callbacks saw the retracts" true
    (List.mem lost !retracted && List.mem (tup [ s "x1" ]) !retracted)

(* Under loss and jitter the registration snapshot races the adds the
   host pushes right after it, here the catch-up update's imports: a
   dropped snapshot frame is resent after [ack_timeout], behind them.
   Whatever the arrival order, the mirror must end equal to the host's
   answers.  The sweep also checks that some seed really delivers an
   add ahead of the snapshot. *)
let test_rearm_snapshot_races_adds () =
  let raced = ref false in
  (* whether an add overtakes the snapshot rests on the fault plan's
     draws; over these seeds it does at 21, 22, 27 and 29 *)
  for fault_seed = 1 to 30 do
    let base =
      {
        Options.default with
        Options.fault_seed = fault_seed;
        drop_prob = 0.2;
        jitter = 0.002;
        ack_timeout = 0.05;
        max_retries = 10;
      }
    in
    let sys = System.build_exn ~opts:(sub_opts ~base ()) (chain 3) in
    (* tags of the deltas with adds that reach the mirror after the
       restart, newest first *)
    let arrivals = ref None in
    let id =
      match
        System.subscribe_remote sys ~subscriber:"n1" ~host:"n0"
          ~on_delta:(fun d ->
            match !arrivals with
            | Some tags when d.Sub.d_adds <> [] ->
                arrivals := Some (d.Sub.d_tag :: tags)
            | _ -> ())
          (parse_query q_all)
      with
      | Ok id -> id
      | Error e -> Alcotest.failf "subscribe_remote: %s" e
    in
    let _ = System.run sys in
    ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 991; s "x1" ]));
    let _ = System.run_update sys ~initiator:"n0" in
    System.crash_node sys "n0";
    arrivals := Some [];
    System.restart_node sys "n0";
    let _ = System.run sys in
    check_tuples
      (Printf.sprintf "mirror = host answers (fault seed %d)" fault_seed)
      (System.local_answers sys ~at:"n0" (parse_query q_all))
      (answers_of sys ~at:"n1" id);
    let is_snapshot tag = tag = "seed" || tag = "rearm" in
    match List.rev (Option.get !arrivals) with
    | first :: rest when (not (is_snapshot first)) && List.exists is_snapshot rest ->
        raced := true
    | _ -> ()
  done;
  Alcotest.(check bool) "an add overtook the snapshot at some seed" true !raced

(* A mirror is a set: adds that overtake the registration snapshot,
   and a late duplicate of it, leave the same answers; a reset empties
   it and reports the loss to the callback as retracts. *)
let test_mirror_is_a_set () =
  let a = tup [ i 1; s "a" ] and b = tup [ i 2; s "b" ] and c = tup [ i 3; s "c" ] in
  let retracted = ref [] in
  let m =
    Mirror.create ~sub_id:"s1" ~host:(Codb_net.Peer_id.of_string "n0")
      ~on_delta:(fun d -> retracted := boxed d.Sub.d_retracts @ !retracted)
      (parse_query q_all)
  in
  let delta tag adds = { Sub.d_adds = packed adds; d_retracts = []; d_tag = tag } in
  Mirror.apply m (delta "upd" [ c ]);
  Mirror.apply m (delta "seed" [ a; b ]);
  Mirror.apply m (delta "seed" [ a; b ]);
  check_tuples "adds that overtook the snapshot stay" [ a; b; c ] (boxed (Mirror.answers m));
  Mirror.reset m ~tag:"rearm";
  check_tuples "reset empties the mirror" [] (boxed (Mirror.answers m));
  check_tuples "the callback saw the loss" [ a; b; c ] !retracted

let test_subscriber_crash_forgets_mirrors () =
  let sys, id = remote_pair () in
  System.crash_node sys "n1";
  Alcotest.(check bool) "mirror gone" true (System.mirror sys ~at:"n1" id = None);
  System.restart_node sys "n1";
  (* pushes to the forgotten id must be ignored, not crash *)
  ignore (System.insert_fact sys ~at:"n0" ~rel:"data" (tup [ i 906; s "w6" ]));
  let _ = System.run sys in
  Alcotest.(check bool) "still no mirror" true (System.mirror sys ~at:"n1" id = None)

(* The query-storm self-join: every store window mixes rows that pass
   [k <= 2] and rows that fail it, and the prepared rule reads the whole
   window.  The join's own comparison drops the failing rows, so the
   answers stay those of a from-scratch evaluation and each comes out
   once. *)
let q_self_join = "q(k, v, w) <- data(k, v), data(k, w), k <= 2"

let test_self_join_mixed_windows () =
  let data = Schema.make "data" [ ("k", Value.Tint); ("v", Value.Tint) ] in
  let db = db_of [ data ] [ ("data", tup [ i 1; i 10 ]); ("data", tup [ i 4; i 40 ]) ] in
  let q = parse_query q_self_join in
  let source = Eval.of_database db in
  let sub =
    match Sub.create ~sub_id:"s" ~source q with
    | Ok sub -> sub
    | Error e -> Alcotest.failf "create: %s" e
  in
  ignore (Sub.refresh sub ~tag:"seed");
  let all_adds = ref [] in
  List.iteri
    (fun round rows ->
      let since = Relation.cardinal (Database.relation db "data") in
      ignore (Database.insert_all db "data" rows);
      let upto = Relation.cardinal (Database.relation db "data") in
      let d = Sub.apply_delta sub ~delta_rel:"data" ~since ~upto ~tag:"t" in
      check_tuples
        (Printf.sprintf "round %d: answers = from-scratch evaluation" round)
        (answer_tuples source q) (boxed (Sub.answers sub));
      all_adds := boxed d.Sub.d_adds @ !all_adds)
    [
      [ tup [ i 2; i 20 ]; tup [ i 5; i 50 ]; tup [ i 1; i 11 ]; tup [ i 7; i 70 ] ];
      [ tup [ i 9; i 90 ]; tup [ i 1; i 12 ]; tup [ i 2; i 21 ]; tup [ i 3; i 30 ] ];
      [ tup [ i 2; i 22 ]; tup [ i 8; i 80 ]; tup [ i 0; i 1 ]; tup [ i 1; i 13 ] ];
    ];
  Alcotest.(check int) "no answer is added twice"
    (List.length (List.sort_uniq Tuple.compare !all_adds))
    (List.length !all_adds)

(* --- equivalence property --------------------------------------------- *)

(* At every quiescent point, the incrementally maintained answer set
   (host registry and remote mirror alike) must equal a from-scratch
   re-evaluation of the query over the host's store — with and without
   the update path's sent cache (without it every serve re-derives into
   a fresh table, so stores see each update's rows again), and under
   seeded drop/dup/crash chaos (retried transport keeps delivery
   exact). *)
let gen_sub_case =
  let open Gen in
  let* shape =
    oneofl [ Topology.Chain; Topology.Ring; Topology.Star_in; Topology.Binary_tree ]
  in
  let* n = int_range 2 4 in
  let* seed = int_range 0 10000 in
  let* corner = oneofl [ `Plain; `No_sent_cache ] in
  let* chaos = bool in
  let* crash = bool in
  return (shape, n, seed, corner, chaos, crash)

let corner_opts corner chaos =
  let base =
    match corner with
    | `Plain -> sub_opts ()
    | `No_sent_cache -> sub_opts ~base:{ Options.default with Options.use_sent_cache = false } ()
  in
  if not chaos then base
  else
    {
      base with
      Options.fault_seed = 7;
      drop_prob = 0.2;
      dup_prob = 0.1;
      jitter = 0.002;
      drop_budget = 4;
      ack_timeout = 0.05;
      max_retries = 6;
    }

let prop_incremental_equals_scratch =
  Q2.Test.make
    ~name:"standing answers = from-scratch re-evaluation at quiescence" ~count:25
    gen_sub_case
    (fun (shape, n, seed, corner, chaos, crash) ->
      let opts = corner_opts corner chaos in
      let params =
        { Topology.default_params with
          Topology.tuples_per_node = 6;
          profile = { Datagen.domain_size = 10; skew = 0.5 } }
      in
      let sys = System.build_exn ~opts (Topology.generate ~params ~seed shape ~n) in
      let queries = [ q_all; q_selective; q_join ] in
      let subscribe_all () =
        List.map
          (fun q ->
            match System.subscribe sys ~at:"n0" (parse_query q) with
            | Ok id -> (id, q)
            | Error e -> Alcotest.failf "subscribe: %s" e)
          queries
      in
      let locals = ref (subscribe_all ()) in
      let remotes =
        List.map
          (fun q ->
            match System.subscribe_remote sys ~subscriber:"n1" ~host:"n0" (parse_query q) with
            | Ok id -> (id, q)
            | Error e -> Alcotest.failf "subscribe_remote: %s" e)
          [ q_all; q_join ]
      in
      let _ = System.run sys in
      let scratch q = sorted_tuples (System.local_answers sys ~at:"n0" (parse_query q)) in
      let agree () =
        List.for_all (fun (id, q) -> scratch q = sorted_tuples (answers_of sys ~at:"n0" id)) !locals
        && List.for_all
             (fun (id, q) ->
               scratch q
               = sorted_tuples (boxed (Mirror.answers (Option.get (System.mirror sys ~at:"n1" id)))))
             remotes
      in
      let ok = ref (agree ()) in
      List.iteri
        (fun round (k, v) ->
          let at = Topology.node_name (round mod n) in
          ignore (System.insert_fact sys ~at ~rel:"data" (tup [ i k; s v ]));
          let _ = System.run_update sys ~initiator:"n0" in
          if crash && round = 1 then begin
            (* the host loses all volatile subscription state; its
               local clients re-subscribe, remote mirrors re-arm *)
            System.crash_node sys "n0";
            System.restart_node sys "n0";
            locals := subscribe_all ();
            let _ = System.run sys in
            ()
          end;
          ok := !ok && agree ())
        [ (991, "x1"); (992, "x2"); (993, "x3") ];
      !ok)

let suite =
  [
    Alcotest.test_case "disabled by default" `Quick test_disabled_by_default;
    Alcotest.test_case "register seeds and unregister" `Quick
      test_register_seeds_and_unregister;
    Alcotest.test_case "validation and limits" `Quick test_validation;
    Alcotest.test_case "incremental maintenance tracks updates" `Quick
      test_incremental_tracks_updates;
    Alcotest.test_case "bulk import re-seeds" `Quick test_import_reseeds;
    Alcotest.test_case "remote push keeps the mirror current" `Quick
      test_remote_push;
    Alcotest.test_case "remote registration outcome reaches the mirror" `Quick
      test_refused_registration_marks_mirror;
    Alcotest.test_case "one push per answer delta" `Quick test_one_push_per_delta;
    Alcotest.test_case "crash tears down, restart re-arms" `Quick
      test_crash_tears_down_restart_rearms;
    Alcotest.test_case "restart snapshot replaces the mirror" `Quick
      test_restart_snapshot_replaces_mirror;
    Alcotest.test_case "re-arm snapshot races adds under loss" `Quick
      test_rearm_snapshot_races_adds;
    Alcotest.test_case "mirror is an order-insensitive set" `Quick
      test_mirror_is_a_set;
    Alcotest.test_case "subscriber crash forgets mirrors" `Quick
      test_subscriber_crash_forgets_mirrors;
    Alcotest.test_case "self-join: windows that fail the comparison" `Quick
      test_self_join_mixed_windows;
    QCheck_alcotest.to_alcotest prop_incremental_equals_scratch;
  ]
