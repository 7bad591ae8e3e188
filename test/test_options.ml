(* Options.validate and its enforcement at System.build time. *)

module Options = Codb_core.Options
module System = Codb_core.System
module Topology = Codb_core.Topology

let ok = function
  | Ok () -> ()
  | Error errors -> Alcotest.failf "unexpected rejection: %s" (String.concat "; " errors)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let rejected ~substring = function
  | Ok () -> Alcotest.failf "expected a rejection mentioning %S" substring
  | Error errors ->
      Alcotest.(check bool)
        (Printf.sprintf "some error mentions %S" substring)
        true
        (List.exists (contains ~sub:substring) errors)

let test_default_is_valid () = ok (Options.validate Options.default)

let test_negative_latency () =
  rejected ~substring:"latency"
    (Options.validate { Options.default with Options.latency = -0.5 })

let test_negative_byte_cost () =
  rejected ~substring:"byte_cost"
    (Options.validate { Options.default with Options.byte_cost = -1e-9 })

let test_zero_bounds_are_valid () =
  (* 0 means disabled / immediate, not invalid *)
  ok
    (Options.validate
       {
         Options.default with
         Options.drop_budget = 0;
         ack_timeout = 0.0;
         max_retries = 0;
       })

let test_chaos_knobs_are_valid () =
  ok
    (Options.validate
       {
         Options.default with
         Options.fault_seed = 42;
         drop_prob = 0.25;
         dup_prob = 1.0;
         jitter = 0.01;
         drop_budget = 10;
         flap_plan = [ ("a", "b", 0.1, 0.2) ];
         crash_plan = [ ("a", 0.1, Some 0.5); ("b", 0.2, None) ];
         ack_timeout = 0.05;
         max_retries = 0;
       });
  Alcotest.(check bool) "faults_enabled" true
    (Options.faults_enabled { Options.default with Options.drop_prob = 0.1 });
  Alcotest.(check bool) "default has no faults" false
    (Options.faults_enabled Options.default);
  Alcotest.(check bool) "default transport is raw" false (Options.reliable Options.default);
  Alcotest.(check bool) "ack_timeout switches the transport" true
    (Options.reliable { Options.default with Options.ack_timeout = 0.05 })

let test_bad_chaos_knobs_rejected () =
  rejected ~substring:"drop_prob"
    (Options.validate { Options.default with Options.drop_prob = 1.5 });
  rejected ~substring:"dup_prob"
    (Options.validate { Options.default with Options.dup_prob = -0.1 });
  rejected ~substring:"jitter"
    (Options.validate { Options.default with Options.jitter = -0.001 });
  rejected ~substring:"drop_budget"
    (Options.validate { Options.default with Options.drop_budget = -1 });
  rejected ~substring:"flap_plan"
    (Options.validate
       { Options.default with Options.flap_plan = [ ("a", "a", 0.1, 0.2) ] });
  rejected ~substring:"flap_plan"
    (Options.validate
       { Options.default with Options.flap_plan = [ ("a", "b", 0.2, 0.1) ] });
  rejected ~substring:"crash_plan"
    (Options.validate
       { Options.default with Options.crash_plan = [ ("a", 0.5, Some 0.1) ] });
  rejected ~substring:"crash_plan"
    (Options.validate { Options.default with Options.crash_plan = [ ("a", -0.1, None) ] });
  rejected ~substring:"ack_timeout"
    (Options.validate { Options.default with Options.ack_timeout = -0.05 });
  rejected ~substring:"max_retries"
    (Options.validate { Options.default with Options.max_retries = -1 })

let test_rto_backoff_capped () =
  let opts =
    { Options.default with Options.ack_timeout = 0.1; max_retries = 100 }
  in
  Alcotest.(check (float 1e-9)) "first attempt" 0.1 (Options.rto opts 0);
  Alcotest.(check (float 1e-9)) "second attempt" 0.2 (Options.rto opts 1);
  Alcotest.(check (float 1e-9)) "growth capped at 64x" 6.4 (Options.rto opts 1000);
  Alcotest.(check bool) "failure deadline is finite" true
    (Float.is_finite (Options.failure_deadline opts))

let test_errors_accumulate () =
  match
    Options.validate
      { Options.default with Options.latency = -1.0; byte_cost = -1.0 }
  with
  | Ok () -> Alcotest.fail "two bad settings accepted"
  | Error errors -> Alcotest.(check int) "both reported" 2 (List.length errors)

let test_build_rejects_bad_options () =
  let cfg = Topology.generate ~seed:1 Topology.Chain ~n:2 in
  (match System.build ~opts:{ Options.default with Options.latency = -1.0 } cfg with
  | Ok _ -> Alcotest.fail "System.build accepted invalid options"
  | Error errors -> Alcotest.(check bool) "errors reported" true (errors <> []));
  (* a wal_dir that is a regular file, or whose parent is missing *)
  let file = Filename.temp_file "codb" ".notdir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun dir ->
          let opts =
            { Options.default with Options.durability = Options.Dur_wal; wal_dir = Some dir }
          in
          match System.build ~opts cfg with
          | Ok _ -> Alcotest.failf "System.build accepted wal_dir %s" dir
          | Error [ why ] ->
              Alcotest.(check bool) ("wal_dir error for " ^ dir) true
                (String.starts_with ~prefix:"wal_dir: " why)
          | Error errors -> Alcotest.failf "expected one error, got %d" (List.length errors))
        [ file; Filename.concat file "x" ])

let suite =
  [
    Alcotest.test_case "default validates" `Quick test_default_is_valid;
    Alcotest.test_case "negative latency rejected" `Quick test_negative_latency;
    Alcotest.test_case "negative byte_cost rejected" `Quick test_negative_byte_cost;
    Alcotest.test_case "zero bounds are valid" `Quick test_zero_bounds_are_valid;
    Alcotest.test_case "chaos knobs are valid" `Quick test_chaos_knobs_are_valid;
    Alcotest.test_case "bad chaos knobs rejected" `Quick test_bad_chaos_knobs_rejected;
    Alcotest.test_case "rto backoff capped" `Quick test_rto_backoff_capped;
    Alcotest.test_case "errors accumulate" `Quick test_errors_accumulate;
    Alcotest.test_case "System.build enforces validate" `Quick
      test_build_rejects_bad_options;
  ]
