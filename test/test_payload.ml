open Helpers
module Payload = Codb_core.Payload
module Ids = Codb_core.Ids
module Stats = Codb_core.Stats
module Peer_id = Codb_net.Peer_id

let uid = Ids.update_id (Peer_id.of_string "n0") 1

let qid = Ids.query_id (Peer_id.of_string "n0") 1

let samples =
  [
    Payload.Update_request { update_id = uid; scope = Payload.Global };
    Payload.Update_request { update_id = uid; scope = Payload.For_rule "r1" };
    Payload.Update_data
      { update_id = uid; rule_id = "r1"; rows = packed [ tup [ i 1; s "x" ] ]; hops = 2;
        global = true; no_ack = false };
    Payload.Update_batch
      { update_id = uid;
        entries =
          [
            { Payload.be_rule = "r1"; be_hops = 2; be_rows = packed [ tup [ i 1; s "x" ] ] };
            { Payload.be_rule = "r2"; be_hops = 1; be_rows = packed [ tup [ i 2; s "x" ] ] };
          ];
        closes = []; global = true; no_ack = true; carries_ack = false; subtree_done = false };
    Payload.Update_batch
      { update_id = uid; entries = []; closes = [ "r1" ]; global = true; no_ack = true;
        carries_ack = true; subtree_done = false };
    Payload.Update_batch
      { update_id = uid; entries = []; closes = [ "r1" ]; global = true; no_ack = true;
        carries_ack = true; subtree_done = true };
    Payload.Update_link_closed { update_id = uid; rule_id = "r1"; global = true; no_ack = false };
    Payload.Update_ack { update_id = uid };
    Payload.Update_terminated { update_id = uid };
    Payload.Query_request
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1";
        label = [ Peer_id.of_string "n0" ]; constraints = Payload.Specialize.any };
    Payload.Query_data
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; rows = packed [ tup [ i 1 ] ] };
    Payload.Query_done
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; complete = true;
        rows = [] };
    Payload.Query_done
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; complete = true;
        rows = packed [ tup [ i 1 ] ] };
    Payload.Rules_file { version = 1; text = "node a { relation r(x: int); }" };
    Payload.Start_update;
    Payload.Stats_request;
    Payload.Stats_response { stats = Stats.snapshot (Stats.create (Peer_id.of_string "n0")) };
    Payload.Discovery_probe { probe_id = "n0/1"; ttl = 3; path = [ Peer_id.of_string "n0" ] };
    Payload.Discovery_reply
      { probe_id = "n0/1"; path = []; peers = [ Peer_id.of_string "n1" ] };
    Payload.Seq
      { seq = 7;
        inner =
          Payload.Update_data
            { update_id = uid; rule_id = "r1"; rows = packed [ tup [ i 1; s "x" ] ]; hops = 1;
              global = true; no_ack = false } };
    Payload.Seq_ack { seq = 7 };
    Payload.Sub_register { sub_id = "n0/s1"; query_text = "q(X) :- r(X, Y)" };
    Payload.Sub_registered { sub_id = "n0/s1"; accepted = true; reason = "" };
    Payload.Sub_registered
      { sub_id = "n0/s1"; accepted = false; reason = "registry full" };
    Payload.Sub_unregister { sub_id = "n0/s1" };
    Payload.Answer_delta
      { sub_id = "n0/s1"; adds = packed [ tup [ i 1 ] ]; retracts = packed [ tup [ i 2 ] ];
        tag = "seed" };
    Payload.Answer_batch
      { entries =
          [
            { Payload.se_sub = "n0/s1"; se_adds = packed [ tup [ i 1 ] ];
              se_retracts = []; se_tag = "coalesced" };
            { Payload.se_sub = "n0/s2"; se_adds = []; se_retracts = packed [ tup [ i 3 ] ];
              se_tag = "u1 via r1 hop 2" };
          ] };
  ]

let test_sizes_positive () =
  List.iter
    (fun p ->
      Alcotest.(check bool) (Payload.describe p) true (Payload.encoded_size p > 0))
    samples

let test_data_size_grows_with_tuples () =
  let mk tuples =
    Payload.encoded_size
      (Payload.Update_data
         { update_id = uid; rule_id = "r"; rows = packed tuples; hops = 1; global = true;
           no_ack = false })
  in
  Alcotest.(check bool) "more tuples, bigger" true
    (mk [ tup [ i 1 ]; tup [ i 2 ] ] > mk [ tup [ i 1 ] ])

(* the encoding must charge for every field a request carries: a
   longer rule id or a pushed constraint set is more bytes on the wire
   (lengths stay under 128, so their varint prefixes stay one byte) *)
let test_request_size_tracks_rule_id () =
  let mk rule_id =
    Payload.encoded_size
      (Payload.Query_request
         { query_id = qid; request_ref = "n0/1"; rule_id;
           label = [ Peer_id.of_string "n0" ]; constraints = Payload.Specialize.any })
  in
  Alcotest.(check int) "delta equals rule-id growth" 100
    (mk (String.make 120 'r') - mk (String.make 20 'r'))

let test_request_size_tracks_constraints () =
  let mk constraints =
    Payload.encoded_size
      (Payload.Query_request
         { query_id = qid; request_ref = "n0/1"; rule_id = "r1";
           label = [ Peer_id.of_string "n0" ]; constraints })
  in
  let constrained =
    Payload.Specialize.(
      One_of
        [ [ { p_left = Col 0; p_op = Codb_cq.Query.Eq; p_right = Const (i 7) } ] ])
  in
  Alcotest.(check bool) "constraints cost bytes" true
    (mk constrained > mk Payload.Specialize.any)

let test_rules_file_size_tracks_text () =
  let mk text = Payload.encoded_size (Payload.Rules_file { version = 1; text }) in
  Alcotest.(check int) "delta equals text growth" 100
    (mk (String.make 120 'x') - mk (String.make 20 'x'))

(* The done bit rides the batch's flag byte: it costs nothing, round
   trips, and is malformed without the ack bit. *)
let test_subtree_done_bit () =
  let close ~carries_ack ~subtree_done =
    Payload.Update_batch
      { update_id = uid; entries = []; closes = [ "r1" ]; global = true; no_ack = true;
        carries_ack; subtree_done }
  in
  let acked = close ~carries_ack:true ~subtree_done:false in
  let done_ = close ~carries_ack:true ~subtree_done:true in
  Alcotest.(check int) "no byte added" (Payload.encoded_size acked)
    (Payload.encoded_size done_);
  Alcotest.(check int) "the size is what encode emits"
    (String.length (Payload.encode done_))
    (Payload.encoded_size done_);
  Alcotest.(check bool) "round trip" true (Payload.decode (Payload.encode done_) = Ok done_);
  Alcotest.(check string) "described" "update-batch (0 rules, 0 tuples) closing r1 +done"
    (Payload.describe done_);
  Alcotest.(check bool) "without the ack bit: malformed" true
    (Result.is_error
       (Payload.decode (Payload.encode (close ~carries_ack:false ~subtree_done:true))))

(* A done's rows ride its completeness byte (bit 1: rows follow): a
   done without rows is, byte for byte, the 17 bytes a done always was,
   and one with rows round-trips, is no longer than a [Query_data], is
   described with its tuple count and is parallel-safe only when no
   row carries a hole. *)
let test_done_carries_rows () =
  let done_ ~complete rows =
    Payload.Query_done
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; complete; rows }
  in
  Alcotest.(check string) "an empty complete done is the old bytes"
    "\t\000\002n0\002\002\004n0/1\004\002r1\001"
    (Payload.encode (done_ ~complete:true []));
  Alcotest.(check string) "an empty partial done is the old bytes"
    "\t\000\002n0\002\002\004n0/1\004\002r1\000"
    (Payload.encode (done_ ~complete:false []));
  let rows = packed [ tup [ i 1; s "x" ]; tup [ i 2; s "y" ] ] in
  List.iter
    (fun complete ->
      let p = done_ ~complete rows in
      Alcotest.(check bool) "round trip" true (Payload.decode (Payload.encode p) = Ok p);
      Alcotest.(check int) "the size is what encode emits"
        (String.length (Payload.encode p))
        (Payload.encoded_size p))
    [ true; false ];
  (* the rows run to the frame's end, uncounted, so the done that
     carries a stream's last rows is no longer than the data it
     replaces *)
  Alcotest.(check int) "as long as the data it replaces"
    (Payload.encoded_size
       (Payload.Query_data { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; rows }))
    (Payload.encoded_size (done_ ~complete:true rows));
  Alcotest.(check bool) "inside a reliable frame too" true
    (let p = Payload.Seq { seq = 3; inner = done_ ~complete:false rows } in
     Payload.decode (Payload.encode p) = Ok p);
  Alcotest.(check string) "described with its rows" "query-done r1 (2 tuples)"
    (Payload.describe (done_ ~complete:true rows));
  Alcotest.(check string) "described without" "query-done r1"
    (Payload.describe (done_ ~complete:true []));
  Alcotest.(check bool) "ground rows: parallel-safe" true
    (Payload.parallel_safe (done_ ~complete:true rows));
  Alcotest.(check bool) "a hole: not parallel-safe" false
    (Payload.parallel_safe
       (done_ ~complete:true
          (packed [ [| Codb_relalg.Value.Int 1; Codb_relalg.Value.Hole 0 |] ])));
  (* the rows bit with no rows behind it, and any higher bit, are
     malformed *)
  let empty = Payload.encode (done_ ~complete:true []) in
  let last = String.length empty - 1 in
  List.iter
    (fun byte ->
      let forged = String.sub empty 0 last ^ String.make 1 (Char.chr byte) in
      Alcotest.(check bool) (Printf.sprintf "byte %d with no rows: malformed" byte) true
        (Result.is_error (Payload.decode forged)))
    [ 2; 3 ];
  Alcotest.(check bool) "byte 4: malformed" true
    (Result.is_error (Payload.decode (String.sub empty 0 last ^ "\004")))

let test_update_protocol_classification () =
  let rec expect_protocol = function
    | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
    | Payload.Update_link_closed _ ->
        true
    | Payload.Seq { inner; _ } -> expect_protocol inner
    | Payload.Update_ack _ | Payload.Update_terminated _ | Payload.Query_request _
    | Payload.Query_data _ | Payload.Query_done _ | Payload.Rules_file _
    | Payload.Start_update | Payload.Stats_request | Payload.Stats_response _
    | Payload.Discovery_probe _ | Payload.Discovery_reply _ | Payload.Seq_ack _
    | Payload.Sub_register _ | Payload.Sub_registered _ | Payload.Sub_unregister _
    | Payload.Answer_delta _ | Payload.Answer_batch _ ->
        false
  in
  List.iter
    (fun p ->
      Alcotest.(check bool) (Payload.describe p) (expect_protocol p)
        (Payload.is_update_protocol p))
    samples

let test_describe_nonempty () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "non-empty description" true
        (String.length (Payload.describe p) > 0))
    samples

let suite =
  [
    Alcotest.test_case "sizes positive" `Quick test_sizes_positive;
    Alcotest.test_case "data size grows with payload" `Quick
      test_data_size_grows_with_tuples;
    Alcotest.test_case "request size tracks rule id" `Quick
      test_request_size_tracks_rule_id;
    Alcotest.test_case "request size tracks constraints" `Quick
      test_request_size_tracks_constraints;
    Alcotest.test_case "rules-file size tracks text" `Quick test_rules_file_size_tracks_text;
    Alcotest.test_case "the done bit costs no byte" `Quick test_subtree_done_bit;
    Alcotest.test_case "a query done carries rows in its completeness byte" `Quick
      test_done_carries_rows;
    Alcotest.test_case "termination accounting classification" `Quick
      test_update_protocol_classification;
    Alcotest.test_case "describe" `Quick test_describe_nonempty;
  ]
