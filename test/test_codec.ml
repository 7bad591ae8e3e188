(* The compact binary wire codec: primitive round-trips, value/tuple
   round-trips across every Value variant (marked nulls included),
   payload round-trips, dictionary compression, and rejection of
   malformed input. *)

open Helpers
module Codec = Codb_net.Codec
module Payload = Codb_core.Payload
module Ids = Codb_core.Ids
module Peer_id = Codb_net.Peer_id
module Value = Codb_relalg.Value

let uid = Ids.update_id (Peer_id.of_string "n0") 1

let qid = Ids.query_id (Peer_id.of_string "n0") 1

let test_primitive_round_trip () =
  let w = Codec.writer () in
  List.iter (Codec.varint w) [ 0; 1; 127; 128; 300; 1 lsl 40 ];
  List.iter (Codec.zigzag w) [ 0; -1; 1; -64; 64; min_int + 1; max_int ];
  List.iter (Codec.float64 w) [ 0.0; -1.5; Float.pi; infinity; neg_infinity ];
  Codec.byte w 0xAB;
  Codec.raw_string w "";
  Codec.raw_string w "hello";
  let r = Codec.reader (Codec.contents w) in
  List.iter
    (fun n -> Alcotest.(check int) "varint" n (Codec.read_varint r))
    [ 0; 1; 127; 128; 300; 1 lsl 40 ];
  List.iter
    (fun n -> Alcotest.(check int) "zigzag" n (Codec.read_zigzag r))
    [ 0; -1; 1; -64; 64; min_int + 1; max_int ];
  List.iter
    (fun f ->
      Alcotest.(check bool) "float64" true (Float.equal f (Codec.read_float64 r)))
    [ 0.0; -1.5; Float.pi; infinity; neg_infinity ];
  Alcotest.(check int) "byte" 0xAB (Codec.read_byte r);
  Alcotest.(check string) "empty raw string" "" (Codec.read_raw_string r);
  Alcotest.(check string) "raw string" "hello" (Codec.read_raw_string r);
  Alcotest.(check bool) "fully consumed" true (Codec.at_end r)

let test_float_nan_round_trip () =
  let w = Codec.writer () in
  Codec.float64 w Float.nan;
  Alcotest.(check bool) "nan survives" true
    (Float.is_nan (Codec.read_float64 (Codec.reader (Codec.contents w))))

let test_string_dictionary_compresses () =
  let one_of s =
    let w = Codec.writer () in
    Codec.string w s;
    Codec.size w
  in
  let many_of s n =
    let w = Codec.writer () in
    for _ = 1 to n do
      Codec.string w s
    done;
    Codec.size w
  in
  let s = String.make 40 'x' in
  (* occurrences after the first cost a 1-byte back-reference, not 41 B *)
  Alcotest.(check int) "10 repeats = first + 9 refs" (one_of s + 9) (many_of s 10);
  (* and they decode back to the same string *)
  let w = Codec.writer () in
  Codec.string w s;
  Codec.string w "other";
  Codec.string w s;
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check string) "first" s (Codec.read_string r);
  Alcotest.(check string) "interleaved" "other" (Codec.read_string r);
  Alcotest.(check string) "back-reference" s (Codec.read_string r)

(* every Value variant, marked nulls (with their minting rule) and
   wire holes included *)
let kitchen_sink_tuples =
  [
    tup
      [
        i 0; i (-1); i 123456789; Value.Float 2.5; Value.Float (-0.0);
        s ""; s "repeated"; Value.Bool true; Value.Bool false;
      ];
    tup
      [
        Value.Null { Value.null_id = 7; null_rule = "r1" };
        Value.Null { Value.null_id = 8; null_rule = "r1" };
        Value.Hole 0; Value.Hole 3; s "repeated"; i max_int; i (min_int + 1);
      ];
  ]

(* A function, not a value: packing a marked null interns it in the
   current null epoch, and a test that resets the null counter starts a
   new one, so the samples are packed where they are decoded. *)
let payload_samples () =
  [
    Payload.Update_request { update_id = uid; scope = Payload.Global };
    Payload.Update_request { update_id = uid; scope = Payload.For_rule "r1" };
    Payload.Update_data
      { update_id = uid; rule_id = "r1"; rows = packed kitchen_sink_tuples; hops = 3;
        global = true; no_ack = true };
    Payload.Update_batch
      { update_id = uid;
        entries =
          [
            { Payload.be_rule = "r1"; be_hops = 2; be_rows = packed kitchen_sink_tuples };
            { Payload.be_rule = "r2"; be_hops = 0; be_rows = [] };
          ];
        closes = []; global = false; no_ack = false; carries_ack = false; subtree_done = false };
    Payload.Update_batch
      { update_id = uid;
        entries = [ { Payload.be_rule = "r1"; be_hops = 4; be_rows = packed kitchen_sink_tuples } ];
        closes = [ "r1"; "r2" ]; global = true; no_ack = true; carries_ack = true;
        subtree_done = true };
    Payload.Update_link_closed { update_id = uid; rule_id = "r1"; global = true; no_ack = true };
    Payload.Update_ack { update_id = uid };
    Payload.Update_terminated { update_id = uid };
    Payload.Query_request
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1";
        label = [ Peer_id.of_string "n0"; Peer_id.of_string "n1" ];
        constraints = Payload.Specialize.any };
    Payload.Query_request
      { query_id = qid; request_ref = "n0/2"; rule_id = "r1";
        label = [ Peer_id.of_string "n0" ];
        constraints =
          Payload.Specialize.(
            One_of
              [
                [
                  { p_left = Col 0; p_op = Codb_cq.Query.Eq; p_right = Const (i 7) };
                  { p_left = Col 1; p_op = Codb_cq.Query.Lt; p_right = Const (s "zz") };
                ];
                [ { p_left = Col 0; p_op = Codb_cq.Query.Neq; p_right = Col 2 } ];
              ]) };
    Payload.Query_data
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1";
        rows = packed [ tup [ i 1; s "x" ] ] };
    Payload.Query_done
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; complete = true;
        rows = [] };
    Payload.Query_done
      { query_id = qid; request_ref = "n0/1"; rule_id = "r1"; complete = false;
        rows = packed [ tup [ i 2; s "y" ]; tup [ i 3; s "x" ] ] };
    Payload.Rules_file { version = 3; text = "node a { relation r(x: int); }" };
    Payload.Start_update;
    Payload.Stats_request;
    Payload.Discovery_probe
      { probe_id = "n0/1"; ttl = 3; path = [ Peer_id.of_string "n0" ] };
    Payload.Discovery_reply
      { probe_id = "n0/1"; path = []; peers = [ Peer_id.of_string "n1" ] };
    (* reliable-transport frames: the inner payload nests verbatim *)
    Payload.Seq
      { seq = 42;
        inner =
          Payload.Update_data
            { update_id = uid; rule_id = "r1"; rows = packed kitchen_sink_tuples; hops = 1;
              global = true; no_ack = false } };
    Payload.Seq { seq = 0; inner = Payload.Update_ack { update_id = uid } };
    Payload.Seq_ack { seq = 1 lsl 30 };
    Payload.Sub_register { sub_id = "n0/s1"; query_text = "q(X) :- r(X, Y), Y > 2" };
    Payload.Sub_registered { sub_id = "n0/s1"; accepted = true; reason = "" };
    Payload.Sub_registered
      { sub_id = "n0/s2"; accepted = false; reason = "registry full" };
    Payload.Sub_unregister { sub_id = "n0/s1" };
    Payload.Answer_delta
      { sub_id = "n0/s1"; adds = packed kitchen_sink_tuples; retracts = packed [ tup [ i 9 ] ];
        tag = "seed" };
    Payload.Answer_delta { sub_id = "n0/s1"; adds = []; retracts = []; tag = "" };
    Payload.Answer_batch { entries = [] };
    Payload.Answer_batch
      { entries =
          [
            { Payload.se_sub = "n0/s1"; se_adds = packed kitchen_sink_tuples;
              se_retracts = []; se_tag = "coalesced" };
            { Payload.se_sub = "n0/s2"; se_adds = [];
              se_retracts = packed [ tup [ i 3; s "gone" ] ]; se_tag = "u1 via r1 hop 2" };
          ] };
  ]

let test_payload_round_trip () =
  List.iter
    (fun p ->
      match Payload.decode (Payload.encode p) with
      | Ok p' -> Alcotest.(check bool) (Payload.describe p) true (p = p')
      | Error e -> Alcotest.failf "%s: decode failed: %s" (Payload.describe p) e)
    (payload_samples ())

let test_encoded_size_is_real () =
  List.iter
    (fun p ->
      Alcotest.(check int) (Payload.describe p)
        (String.length (Payload.encode p))
        (Payload.encoded_size p))
    (payload_samples ())

let test_dictionary_beats_estimator_on_skew () =
  (* many tuples sharing few distinct strings: the field-count estimate
     the statistics module uses for data volume ({!Tuple.size_bytes})
     charges every string at its first-occurrence cost, while the
     per-message dictionary back-references repeats, so the real
     encoding is strictly smaller — here by at least the 3 bytes each
     of the ~195 repeated short strings saves, less the message
     header *)
  let tuples = List.init 200 (fun k -> tup [ i k; s (Printf.sprintf "v%d" (k mod 5)) ]) in
  let p =
    Payload.Update_data
      { update_id = uid; rule_id = "r1"; rows = packed tuples; hops = 1; global = true;
        no_ack = false }
  in
  let estimate = List.fold_left (fun acc t -> acc + Codb_relalg.Tuple.size_bytes t) 0 tuples in
  Alcotest.(check bool) "encoded beats the estimate by the dict savings" true
    (Payload.encoded_size p + 500 < estimate)

let test_stats_response_not_encodable () =
  let stats = Codb_core.Stats.snapshot (Codb_core.Stats.create (Peer_id.of_string "n0")) in
  let p = Payload.Stats_response { stats } in
  (match Payload.encode p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Stats_response must not claim a binary encoding");
  Alcotest.(check int) "the snapshot's own estimate sizes it"
    (1 + Codb_core.Stats.snapshot_size_bytes stats)
    (Payload.encoded_size p);
  (* sizing it as a link frame neither changes the count nor trains
     the link dictionary *)
  let d = Codb_net.Codec.Dict.sender () in
  Alcotest.(check int) "same size on a link" (Payload.encoded_size p)
    (Payload.encoded_size ~link:d p);
  Alcotest.(check int) "link dictionary untouched" 0 (Codb_net.Codec.Dict.entries d)

let test_malformed_input_rejected () =
  let reject label input =
    match Payload.decode input with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  reject "empty" "";
  reject "unknown tag" "\xff";
  reject "truncated" (String.sub (Payload.encode (List.hd (payload_samples ()))) 0 2);
  let valid = Payload.encode (List.hd (payload_samples ())) in
  reject "trailing garbage" (valid ^ "\x00");
  (* a truncation point inside every sample must never crash, only Error *)
  List.iter
    (fun p ->
      let enc = Payload.encode p in
      for cut = 0 to String.length enc - 1 do
        match Payload.decode (String.sub enc 0 cut) with
        | Ok _ | Error _ -> ()
      done)
    (payload_samples ())

(* The update flag byte: every combination of [global], [no_ack] and
   (on a batch) [carries_ack] and [subtree_done] (only with
   [carries_ack]) round-trips, and any other byte decodes to an error,
   never an exception.  [valid] says which bytes a constructor
   accepts. *)
let flag_payloads ~global ~no_ack ~carries_ack ~subtree_done =
  let rows = packed [ tup [ i 1; s "x" ] ] in
  let two_bits byte = byte land lnot 3 = 0 in
  let batch_valid byte = byte land lnot 15 = 0 && (byte land 8 = 0 || byte land 4 <> 0) in
  [
    ( "data",
      two_bits,
      Payload.Update_data { update_id = uid; rule_id = "r1"; rows; hops = 2; global; no_ack } );
    ( "batch",
      batch_valid,
      Payload.Update_batch
        { update_id = uid;
          entries = [ { Payload.be_rule = "r1"; be_hops = 1; be_rows = rows } ];
          closes = [ "r1" ]; global; no_ack; carries_ack; subtree_done } );
    ( "close",
      two_bits,
      Payload.Update_link_closed { update_id = uid; rule_id = "r1"; global; no_ack } );
  ]

let test_update_flags_round_trip () =
  let bools = [ false; true ] in
  List.iter
    (fun global ->
      List.iter
        (fun no_ack ->
          List.iter
            (fun (carries_ack, subtree_done) ->
              List.iter
                (fun (name, valid, p) ->
                  (* data and close have neither ack bit *)
                  if valid 4 || not carries_ack then
                    Alcotest.(check bool)
                      (Printf.sprintf "%s global=%b no_ack=%b carries_ack=%b subtree_done=%b"
                         name global no_ack carries_ack subtree_done)
                      true
                      (Payload.decode (Payload.encode p) = Ok p))
                (flag_payloads ~global ~no_ack ~carries_ack ~subtree_done))
            [ (false, false); (true, false); (true, true) ])
        bools)
    bools;
  (* the flag byte is where the all-clear and the global-only
     encodings differ; every byte the constructor does not accept must
     be refused *)
  List.iter2
    (fun (name, valid, clear) (_, _, global) ->
      let a = Payload.encode clear and b = Payload.encode global in
      let at =
        let rec find k = if a.[k] <> b.[k] then k else find (k + 1) in
        find 0
      in
      Alcotest.(check int) (name ^ ": global-only is the old bool byte") 1 (Char.code b.[at]);
      for byte = 0 to 255 do
        let damaged = Bytes.of_string a in
        Bytes.set damaged at (Char.chr byte);
        match Payload.decode (Bytes.to_string damaged) with
        | Ok _ -> if not (valid byte) then Alcotest.failf "%s: flag byte %d decoded" name byte
        | Error _ -> if valid byte then Alcotest.failf "%s: valid flag byte %d refused" name byte
        | exception e -> Alcotest.failf "%s: flag byte %d raised %s" name byte (Printexc.to_string e)
      done)
    (flag_payloads ~global:false ~no_ack:false ~carries_ack:false ~subtree_done:false)
    (flag_payloads ~global:true ~no_ack:false ~carries_ack:false ~subtree_done:false)

(* Random payloads across every encodable variant: the size model must
   count exactly what [encode] emits, and decoding must invert it.
   Stats_response is the one (never encoded) exception, covered by
   [test_stats_response_not_encodable]. *)
module Q2 = QCheck2
module Gen = QCheck2.Gen

let gen_small_string = Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

let gen_value =
  Gen.oneof
    [
      Gen.map (fun n -> Value.Int n) (Gen.int_range (-1000) 1000);
      Gen.map (fun f -> Value.Float f) (Gen.float_range (-10.0) 10.0);
      Gen.map (fun x -> Value.Str x) gen_small_string;
      Gen.map (fun b -> Value.Bool b) Gen.bool;
      Gen.map2
        (fun id rule -> Value.Null { Value.null_id = id; null_rule = rule })
        (Gen.int_range 0 50) gen_small_string;
      Gen.map (fun k -> Value.Hole k) (Gen.int_range 0 5);
    ]

let gen_tuple = Gen.map Array.of_list (Gen.list_size (Gen.int_range 1 4) gen_value)

let gen_tuples = Gen.list_size (Gen.int_range 0 5) gen_tuple

let gen_peer =
  Gen.map Peer_id.of_string
    (Gen.string_size ~gen:(Gen.char_range 'a' 'z') (Gen.int_range 1 8))

let gen_uid = Gen.map2 Ids.update_id gen_peer (Gen.int_range 0 100)

let gen_qid = Gen.map2 Ids.query_id gen_peer (Gen.int_range 0 100)

let gen_operand =
  Gen.oneof
    [
      Gen.map (fun c -> Payload.Specialize.Col c) (Gen.int_range 0 4);
      Gen.map (fun v -> Payload.Specialize.Const v) gen_value;
    ]

let gen_pred =
  Gen.map3
    (fun l op r -> { Payload.Specialize.p_left = l; p_op = op; p_right = r })
    gen_operand
    (Gen.oneofl
       [ Codb_cq.Query.Eq; Codb_cq.Query.Neq; Codb_cq.Query.Lt; Codb_cq.Query.Le;
         Codb_cq.Query.Gt; Codb_cq.Query.Ge ])
    gen_operand

let gen_constraints =
  Gen.oneof
    [
      Gen.return Payload.Specialize.any;
      Gen.map
        (fun alts -> Payload.Specialize.One_of alts)
        (Gen.list_size (Gen.int_range 0 3)
           (Gen.list_size (Gen.int_range 0 3) gen_pred));
    ]

let gen_batch_entry =
  Gen.map3
    (fun rule hops tuples ->
      { Payload.be_rule = rule; be_hops = hops; be_rows = packed tuples })
    gen_small_string (Gen.int_range 0 9) gen_tuples

let gen_sub_entry =
  let open Gen in
  let* sub = gen_small_string in
  let* adds = gen_tuples in
  let* retracts = gen_tuples in
  let* tag = gen_small_string in
  return
    { Payload.se_sub = sub; se_adds = packed adds; se_retracts = packed retracts; se_tag = tag }

let gen_payload_flat =
  let open Gen in
  oneof
    [
      map2
        (fun u scope -> Payload.Update_request { update_id = u; scope })
        gen_uid
        (oneof
           [ return Payload.Global;
             map (fun r -> Payload.For_rule r) gen_small_string ]);
      (let* update_id = gen_uid in
       let* rule_id = gen_small_string in
       let* tuples = gen_tuples in
       let* hops = int_range 0 9 in
       let* global = bool in
       let* no_ack = bool in
       return
         (Payload.Update_data { update_id; rule_id; rows = packed tuples; hops; global; no_ack }));
      (let* update_id = gen_uid in
       let* entries = list_size (int_range 0 4) gen_batch_entry in
       let* closes = list_size (int_range 0 3) gen_small_string in
       let* global = bool in
       let* no_ack = bool in
       let* carries_ack = bool in
       (* the done bit only rides an acknowledgement *)
       let* subtree_done = if carries_ack then bool else return false in
       return
         (Payload.Update_batch
            { update_id; entries; closes; global; no_ack; carries_ack; subtree_done }));
      (let* update_id = gen_uid in
       let* rule_id = gen_small_string in
       let* global = bool in
       let* no_ack = bool in
       return (Payload.Update_link_closed { update_id; rule_id; global; no_ack }));
      map (fun u -> Payload.Update_ack { update_id = u }) gen_uid;
      map (fun u -> Payload.Update_terminated { update_id = u }) gen_uid;
      (let* query_id = gen_qid in
       let* request_ref = gen_small_string in
       let* rule_id = gen_small_string in
       let* label = list_size (int_range 0 3) gen_peer in
       let* constraints = gen_constraints in
       return
         (Payload.Query_request { query_id; request_ref; rule_id; label; constraints }));
      (let* query_id = gen_qid in
       let* request_ref = gen_small_string in
       let* rule_id = gen_small_string in
       let* tuples = gen_tuples in
       return (Payload.Query_data { query_id; request_ref; rule_id; rows = packed tuples }));
      (let* query_id = gen_qid in
       let* request_ref = gen_small_string in
       let* rule_id = gen_small_string in
       let* complete = bool in
       let* tuples = gen_tuples in
       return
         (Payload.Query_done
            { query_id; request_ref; rule_id; complete; rows = packed tuples }));
      map2
        (fun version text -> Payload.Rules_file { version; text })
        (int_range 0 99) gen_small_string;
      return Payload.Start_update;
      return Payload.Stats_request;
      (let* probe_id = gen_small_string in
       let* ttl = int_range 0 9 in
       let* path = list_size (int_range 0 3) gen_peer in
       return (Payload.Discovery_probe { probe_id; ttl; path }));
      (let* probe_id = gen_small_string in
       let* path = list_size (int_range 0 3) gen_peer in
       let* peers = list_size (int_range 0 3) gen_peer in
       return (Payload.Discovery_reply { probe_id; path; peers }));
      map (fun seq -> Payload.Seq_ack { seq }) (int_range 0 (1 lsl 20));
      map2
        (fun sub_id query_text -> Payload.Sub_register { sub_id; query_text })
        gen_small_string gen_small_string;
      map3
        (fun sub_id accepted reason ->
          Payload.Sub_registered { sub_id; accepted; reason })
        gen_small_string bool gen_small_string;
      map (fun sub_id -> Payload.Sub_unregister { sub_id }) gen_small_string;
      (let* sub_id = gen_small_string in
       let* adds = gen_tuples in
       let* retracts = gen_tuples in
       let* tag = gen_small_string in
       return
         (Payload.Answer_delta
            { sub_id; adds = packed adds; retracts = packed retracts; tag }));
      map
        (fun entries -> Payload.Answer_batch { entries })
        (list_size (int_range 0 4) gen_sub_entry);
    ]

let gen_payload =
  let open Gen in
  oneof
    [
      gen_payload_flat;
      map2 (fun seq inner -> Payload.Seq { seq; inner }) (int_range 0 1000)
        gen_payload_flat;
    ]

let prop_encoded_size_exact =
  Q2.Test.make ~name:"encoded_size p = |encode p| on random payloads" ~count:500
    ~print:Payload.describe gen_payload
    (fun p -> Payload.encoded_size p = String.length (Payload.encode p))

let prop_decode_inverts_encode =
  Q2.Test.make ~name:"decode (encode p) = Ok p on random payloads" ~count:500
    ~print:Payload.describe gen_payload
    (fun p -> Payload.decode (Payload.encode p) = Ok p)

(* Fuzz hardening: decoding damaged bytes must be total — truncation
   at any point, or one flipped bit anywhere (which can turn a length
   prefix into a multi-gigabyte allocation count if the decoder trusts
   it), yields [Ok] or [Error], never an exception. *)
let gen_damaged =
  let open Gen in
  let* p = gen_payload in
  let enc = Payload.encode p in
  let* truncate = bool in
  if truncate then
    let* cut = int_range 0 (String.length enc) in
    return (String.sub enc 0 cut)
  else
    let* pos = int_range 0 (String.length enc - 1) in
    let* bit = int_range 0 7 in
    let b = Bytes.of_string enc in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    return (Bytes.to_string b)

let prop_damaged_decode_total =
  Q2.Test.make ~name:"decode is total on truncated / bit-flipped input"
    ~count:2000
    ~print:(fun s -> Printf.sprintf "%S" s)
    gen_damaged
    (fun s -> match Payload.decode s with Ok _ | Error _ -> true)

(* The same hardening for WAL snapshots, decoded directly: below
   recovery the CRC frame would stop such damage first.  A random store
   (ints, strings and marked nulls, some rows imported),
   with a relay holding dedup keys and a few mirrors, is snapshotted,
   then truncated or bit-flipped; decoding returns records or raises
   [Malformed], nothing else. *)
module Durable = Codb_core.Durable
module Node = Codb_core.Node
module Lineage = Codb_core.Lineage

let snapshot_config =
  parse_config
    {|node a {
  relation data(k: int, v: string);
  relation pairs(x: int, y: int);
}|}

let gen_snapshot_store =
  let open Gen in
  let gen_cell =
    oneof
      [
        map (fun x -> Value.Str x) gen_small_string;
        map2
          (fun id rule -> Value.Null { Value.null_id = id; null_rule = rule })
          (int_range 0 20) gen_small_string;
      ]
  in
  let gen_row =
    let* k = int_range (-50) 50 in
    let* v = gen_cell in
    let* import = opt (pair gen_small_string (int_range 0 4)) in
    return (k, v, import)
  in
  let* rows = list_size (int_range 0 12) gen_row in
  let* pairs = list_size (int_range 0 6) (pair (int_range 0 9) (int_range 0 9)) in
  let* seen = list_size (int_range 0 4) gen_small_string in
  let* mirrors = list_size (int_range 0 2) (pair gen_small_string gen_peer) in
  return (rows, pairs, seen, mirrors)

let snapshot_node () = Node.create (Option.get (Codb_cq.Config.node snapshot_config "a"))

let mirror_query = parse_query "q(k) <- data(k, v)"

let snapshot_of (rows, pairs, seen, mirrors) =
  let node = snapshot_node () in
  let insert rel t = ignore (Codb_relalg.Database.insert node.Node.store rel t) in
  List.iter
    (fun (k, v, import) ->
      let data = Database.relation node.Node.store "data" in
      let since = Relation.cardinal data in
      insert "data" (tup [ i k; v ]);
      (* a row the store already held is not imported again *)
      Option.iter
        (fun (rule, hops) ->
          Lineage.record node.Node.lineage ~rel:"data" ~since ~upto:(Relation.cardinal data)
            { Lineage.li_rule = rule; li_hops = hops; li_at = float_of_int hops /. 8. })
        import)
    rows;
  List.iter (fun (x, y) -> insert "pairs" (tup [ i x; i y ])) pairs;
  node.Node.relay <- Some (Codb_core.Relay.create ~next_seq:7 ~seen ());
  List.iter
    (fun (sub_id, host) ->
      Hashtbl.replace node.Node.sub_mirrors sub_id
        (Codb_sub.Mirror.create ~sub_id ~host mirror_query))
    mirrors;
  Durable.encode_snapshot node

let gen_damaged_snapshot =
  let open Gen in
  let* store = gen_snapshot_store in
  let enc = snapshot_of store in
  let* truncate = bool in
  if truncate then
    let* cut = int_range 0 (String.length enc) in
    return (String.sub enc 0 cut)
  else
    let* pos = int_range 0 (String.length enc - 1) in
    let* bit = int_range 0 7 in
    let b = Bytes.of_string enc in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
    return (Bytes.to_string b)

let prop_snapshot_decode_total =
  Q2.Test.make ~name:"snapshot decode is total on truncated / bit-flipped input"
    ~count:1000
    ~print:(fun s -> Printf.sprintf "%S" s)
    gen_damaged_snapshot
    (fun s ->
      match Durable.decode_snapshot s with
      | (_ : Durable.record list) -> true
      | exception Codec.Malformed _ -> true)

(* Undamaged, a snapshot rebuilds the node: a fresh node recovered
   from it writes the same snapshot bytes again. *)
let prop_snapshot_round_trips =
  Q2.Test.make ~name:"a snapshot of a random store rebuilds it" ~count:200
    gen_snapshot_store
    (fun store ->
      let snapshot = snapshot_of store in
      let backend = Codb_store.Backend.memory () in
      Codb_store.Wal.snapshot_now
        (Codb_store.Wal.create ~backend ~snapshot_every:1000
           ~take_snapshot:(fun () -> snapshot) ());
      let fresh = snapshot_node () in
      let opts =
        {
          Codb_core.Options.default with
          Codb_core.Options.durability = Codb_core.Options.Dur_wal;
          ack_timeout = 0.05;
        }
      in
      let rv = Durable.recover fresh opts ~backend in
      rv.Durable.rv_had_snapshot && String.equal snapshot (Durable.encode_snapshot fresh))

(* --- link-level incremental dictionaries ---------------------------- *)

let test_link_roundtrip_and_shrink () =
  let d = Codec.Dict.sender () in
  let rc = Codec.Dict.receiver () in
  let p =
    Payload.Update_data
      {
        update_id = uid;
        rule_id = "r_common_rule_name";
        rows = packed [ tup [ s "shared-string"; i 1 ] ];
        hops = 1;
        global = true;
        no_ack = false;
      }
  in
  let first = Payload.encode ~link:d p in
  Alcotest.(check bool) "first message decodes" true
    (Payload.decode ~link:rc first = Ok p);
  let second = Payload.encode ~link:d p in
  Alcotest.(check bool) "second message decodes" true
    (Payload.decode ~link:rc second = Ok p);
  Alcotest.(check bool) "repeat message is smaller"
    true
    (String.length second < String.length first);
  Alcotest.(check bool) "back-references recorded" true (Codec.Dict.hits d > 0);
  Alcotest.(check int) "sizes stay exact" (String.length (Payload.encode ~link:d p))
    (Payload.encoded_size ~link:d p)

let test_link_desync_fails_closed () =
  let d = Codec.Dict.sender () in
  let rc = Codec.Dict.receiver () in
  let mk rule =
    Payload.Update_link_closed { update_id = uid; rule_id = rule; global = true; no_ack = false }
  in
  let intro = Payload.encode ~link:d (mk "shared") in
  let backref = Payload.encode ~link:d (mk "shared") in
  (* the introduction is lost: the reference must dangle, not resolve *)
  ignore intro;
  (match Payload.decode ~link:rc backref with
  | Error _ -> ()
  | Ok p -> Alcotest.failf "dangling reference decoded as %s" (Payload.describe p));
  (* the sender learns the link broke: new epoch, literals return *)
  Codec.Dict.bump d;
  let fresh = Payload.encode ~link:d (mk "shared") in
  Alcotest.(check bool) "post-bump message decodes" true
    (Payload.decode ~link:rc fresh = Ok (mk "shared"))

let test_link_stale_epoch_dangles () =
  let d = Codec.Dict.sender () in
  let rc = Codec.Dict.receiver () in
  let mk rule =
    Payload.Update_link_closed { update_id = uid; rule_id = rule; global = true; no_ack = false }
  in
  let m_intro = Payload.encode ~link:d (mk "x") in
  let m_ref = Payload.encode ~link:d (mk "x") in
  Codec.Dict.bump d;
  let m_new = Payload.encode ~link:d (mk "y") in
  Alcotest.(check bool) "old-epoch intro decodes" true
    (Payload.decode ~link:rc m_intro = Ok (mk "x"));
  Alcotest.(check bool) "new epoch adopted" true
    (Payload.decode ~link:rc m_new = Ok (mk "y"));
  (* the late pre-bump message references a table the receiver reset *)
  match Payload.decode ~link:rc m_ref with
  | Error _ -> ()
  | Ok p -> Alcotest.failf "stale reference decoded as %s" (Payload.describe p)

(* Size model under link dictionaries: two dictionaries trained by the
   same message sequence stay in lockstep, so [encoded_size ~link] on
   one predicts [encode ~link] on the other exactly, message after
   message. *)
let prop_encoded_size_exact_linked =
  Q2.Test.make ~name:"encoded_size ~link = |encode ~link| along random streams"
    ~count:200
    ~print:(fun ps -> String.concat "; " (List.map Payload.describe ps))
    Gen.(list_size (int_range 0 8) gen_payload)
    (fun ps ->
      let d_size = Codec.Dict.sender () in
      let d_enc = Codec.Dict.sender () in
      List.for_all
        (fun p ->
          Payload.encoded_size ~link:d_size p
          = String.length (Payload.encode ~link:d_enc p))
        ps)

(* The epoch-desync safety net: under any interleaving of losses and
   epoch bumps, a delivered message decodes to exactly what was sent or
   fails — never to a payload with a wrong string. *)
type link_event = Ld_deliver | Ld_drop | Ld_bump_then_deliver

let gen_link_plan =
  Gen.(
    list_size (int_range 0 20)
      (pair gen_payload
         (oneofl [ Ld_deliver; Ld_drop; Ld_bump_then_deliver ])))

let prop_link_desync_never_wrong =
  Q2.Test.make
    ~name:"link dictionaries never decode a wrong payload under loss/bumps"
    ~count:300 gen_link_plan
    (fun plan ->
      let d = Codec.Dict.sender () in
      let rc = Codec.Dict.receiver () in
      List.for_all
        (fun (p, ev) ->
          (match ev with Ld_bump_then_deliver -> Codec.Dict.bump d | _ -> ());
          let bytes = Payload.encode ~link:d p in
          match ev with
          | Ld_drop -> true (* the receiver never sees it *)
          | Ld_deliver | Ld_bump_then_deliver -> (
              match Payload.decode ~link:rc bytes with
              | Ok p' -> p' = p
              | Error _ -> true))
        plan)

(* The counting sizer against the encoder, on one link: a random stream
   of row-carrying messages (holes, nulls, strings, floats and ints
   outside the packed payload range), with epoch bumps between them.
   Each message is sized on one dictionary and encoded on a twin: the
   size must be the encoding's length, the two dictionaries must stay
   equal, and the receiver must decode the rows that were sent.  The
   rows are packed inside the property, in the current null epoch. *)
let gen_wide_value =
  Gen.oneof
    [
      gen_value;
      Gen.map (fun n -> Value.Int n) Gen.int;
      Gen.map (fun f -> Value.Float f) (Gen.oneofl [ Float.nan; -0.0; infinity; 1e300 ]);
      Gen.map (fun k -> Value.Hole k) (Gen.oneofl [ max_int; min_int ]);
    ]

let gen_wide_tuples =
  Gen.(list_size (int_range 0 6) (map Array.of_list (list_size (int_range 1 4) gen_wide_value)))

type row_msg =
  | Rm_data of string * Codb_relalg.Tuple.t list * int
  | Rm_batch of (string * int * Codb_relalg.Tuple.t list) list
  | Rm_query of string * Codb_relalg.Tuple.t list
  | Rm_seq of int * row_msg

(* a message on the link, or an epoch bump of both dictionaries *)
type link_step = Send of row_msg | Bump

let gen_link_step =
  let open Gen in
  let flat =
    oneof
      [
        map3 (fun rule tuples hops -> Rm_data (rule, tuples, hops)) gen_small_string
          gen_wide_tuples (int_range 0 9);
        map
          (fun entries -> Rm_batch entries)
          (list_size (int_range 0 3)
             (triple gen_small_string (int_range 0 9) gen_wide_tuples));
        map2 (fun rule tuples -> Rm_query (rule, tuples)) gen_small_string gen_wide_tuples;
      ]
  in
  frequency
    [
      (6, map (fun m -> Send m) flat);
      (2, map2 (fun seq m -> Send (Rm_seq (seq, m))) (int_range 0 1000) flat);
      (1, return Bump);
    ]

let rec payload_of_msg = function
  | Rm_data (rule_id, tuples, hops) ->
      Payload.Update_data
        { update_id = uid; rule_id; rows = packed tuples; hops; global = true; no_ack = false }
  | Rm_batch entries ->
      Payload.Update_batch
        { update_id = uid;
          entries =
            List.map
              (fun (be_rule, be_hops, tuples) ->
                { Payload.be_rule; be_hops; be_rows = packed tuples })
              entries;
          closes = []; global = false; no_ack = true; carries_ack = false; subtree_done = false }
  | Rm_query (rule_id, tuples) ->
      Payload.Query_data { query_id = qid; request_ref = "n0/7"; rule_id; rows = packed tuples }
  | Rm_seq (seq, inner) -> Payload.Seq { seq; inner = payload_of_msg inner }

let dict_stats d = Codec.Dict.(entries d, intros d, hits d)

let prop_counted_size_trains_like_encode =
  Q2.Test.make ~name:"counted size = encoded size, twin dictionaries stay equal" ~count:300
    Gen.(list_size (int_range 0 12) gen_link_step)
    (fun steps ->
      let sizer = Codec.Dict.sender () and twin = Codec.Dict.sender () in
      let rc = Codec.Dict.receiver () in
      List.for_all
        (function
          | Bump ->
              Codec.Dict.bump sizer;
              Codec.Dict.bump twin;
              true
          | Send msg ->
              let p = payload_of_msg msg in
              let size = Payload.encoded_size ~link:sizer p in
              let bytes = Payload.encode ~link:twin p in
              size = String.length bytes
              && dict_stats sizer = dict_stats twin
              && Payload.decode ~link:rc bytes = Ok p)
        steps)

let suite =
  [
    Alcotest.test_case "primitive round-trips" `Quick test_primitive_round_trip;
    Alcotest.test_case "nan round-trips" `Quick test_float_nan_round_trip;
    Alcotest.test_case "string dictionary compresses" `Quick
      test_string_dictionary_compresses;
    Alcotest.test_case "payloads round-trip" `Quick test_payload_round_trip;
    Alcotest.test_case "encoded_size = |encode|" `Quick test_encoded_size_is_real;
    Alcotest.test_case "dictionary beats the estimator on skew" `Quick
      test_dictionary_beats_estimator_on_skew;
    Alcotest.test_case "Stats_response stays estimator-sized" `Quick
      test_stats_response_not_encodable;
    Alcotest.test_case "malformed input rejected, never a crash" `Quick
      test_malformed_input_rejected;
    Alcotest.test_case "update flag byte: every combination, unknown bits refused" `Quick
      test_update_flags_round_trip;
    QCheck_alcotest.to_alcotest prop_encoded_size_exact;
    QCheck_alcotest.to_alcotest prop_decode_inverts_encode;
    QCheck_alcotest.to_alcotest prop_damaged_decode_total;
    QCheck_alcotest.to_alcotest prop_snapshot_decode_total;
    QCheck_alcotest.to_alcotest prop_snapshot_round_trips;
    Alcotest.test_case "link dict roundtrip and shrink" `Quick
      test_link_roundtrip_and_shrink;
    Alcotest.test_case "link dict desync fails closed" `Quick
      test_link_desync_fails_closed;
    Alcotest.test_case "link dict stale epoch dangles" `Quick
      test_link_stale_epoch_dangles;
    QCheck_alcotest.to_alcotest prop_encoded_size_exact_linked;
    QCheck_alcotest.to_alcotest prop_link_desync_never_wrong;
    QCheck_alcotest.to_alcotest prop_counted_size_trains_like_encode;
  ]
