(* Unit tests of the per-update and per-query protocol state
   machines. *)

open Helpers
module U = Codb_core.Update_state
module Q = Codb_core.Query_state
module Ids = Codb_core.Ids
module Peer_id = Codb_net.Peer_id

let uid = Ids.update_id (Peer_id.of_string "n0") 1

let test_update_state_links () =
  let st = U.create ~initiator:true ~outgoing:[ "o1"; "o2" ] ~incoming:[ "i1" ] uid in
  Alcotest.(check bool) "o1 open" true (U.out_state st "o1" = U.Link_open);
  Alcotest.(check bool) "i1 open" true (U.in_state st "i1" = U.Link_open);
  Alcotest.(check bool) "unknown reads closed" true
    (U.out_state st "zzz" = U.Link_closed);
  Alcotest.(check bool) "not yet all closed" false (U.all_out_closed st);
  U.close_out st "o1";
  Alcotest.(check bool) "still not all" false (U.all_out_closed st);
  U.close_out st "o2";
  Alcotest.(check bool) "now all closed" true (U.all_out_closed st);
  U.close_in st "i1";
  Alcotest.(check bool) "i1 closed" true (U.in_state st "i1" = U.Link_closed)

let test_update_state_scoped_activation () =
  let st = U.create ~initiator:true ~scoped:true ~outgoing:[] ~incoming:[] uid in
  Alcotest.(check bool) "empty is all-closed" true (U.all_out_closed st);
  Alcotest.(check bool) "inactive" false (U.is_active_out st "o1");
  U.activate_out st "o1";
  Alcotest.(check bool) "active now" true (U.is_active_out st "o1");
  Alcotest.(check bool) "open" true (U.out_state st "o1" = U.Link_open);
  Alcotest.(check bool) "no longer all closed" false (U.all_out_closed st);
  U.close_out st "o1";
  U.activate_out st "o1";
  Alcotest.(check bool) "activation does not reopen" true
    (U.out_state st "o1" = U.Link_closed)

let test_update_state_sent_cache () =
  let st = U.create ~initiator:false ~outgoing:[] ~incoming:[ "i1" ] uid in
  Alcotest.(check int) "empty cache" 0 (U.sent_tracked st "i1");
  let filter = U.sent_filter st "i1" in
  List.iter
    (fun row -> Row.Table.replace (Codb_core.Sent_filter.rows filter) row ())
    (packed [ tup [ i 1 ]; tup [ i 2 ]; tup [ i 2 ]; tup [ i 3 ] ]);
  Alcotest.(check int) "set semantics" 3 (U.sent_tracked st "i1");
  check_tuples "members, sorted"
    [ tup [ i 1 ]; tup [ i 2 ]; tup [ i 3 ] ]
    (boxed (Codb_core.Sent_filter.elements (U.sent_filter st "i1")));
  Alcotest.(check int) "caches are per link" 0 (U.sent_tracked st "other");
  U.release st;
  Alcotest.(check int) "released" 0 (U.sent_tracked st "i1")

let qid = Ids.query_id (Peer_id.of_string "n0") 1

let mk_query_state () =
  let overlay = db_of [ r_schema ] [] in
  Q.create ~query_id:qid ~ref_:"ref0"
    ~kind:
      (Q.Root
         { query = parse_query "a(x) <- r(x, y)"; result = None; on_answer = None })
    ~overlay

let test_query_state_pending () =
  let st = mk_query_state () in
  Alcotest.(check bool) "trivially done" true (Q.all_done st);
  Q.add_pending st ~ref_:"sub1" ~rule:"r1";
  Q.add_pending st ~ref_:"sub2" ~rule:"r2";
  Alcotest.(check bool) "not done" false (Q.all_done st);
  Q.mark_done st ~ref_:"sub1";
  Alcotest.(check bool) "partially done" false (Q.all_done st);
  Q.mark_done st ~ref_:"sub2";
  Alcotest.(check bool) "done" true (Q.all_done st);
  Q.mark_done st ~ref_:"unknown" (* must be a harmless no-op *)

let suite =
  [
    Alcotest.test_case "update link states" `Quick test_update_state_links;
    Alcotest.test_case "scoped activation" `Quick test_update_state_scoped_activation;
    Alcotest.test_case "sent cache" `Quick test_update_state_sent_cache;
    Alcotest.test_case "query pending bookkeeping" `Quick test_query_state_pending;
  ]
