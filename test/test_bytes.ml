(* Byte goldens: the exact bytes of a WAL snapshot, of one WAL record
   of each kind, and of the two answer-push payloads on a link.  The
   on-disk and wire formats must not drift when the code that writes
   them changes; a change meant to alter them updates these strings
   and says why. *)

open Helpers
module Node = Codb_core.Node
module Durable = Codb_core.Durable
module Lineage = Codb_core.Lineage
module Payload = Codb_core.Payload
module Codec = Codb_net.Codec
module Peer_id = Codb_net.Peer_id

let hex s =
  String.concat ""
    (List.of_seq (Seq.map (fun ch -> Printf.sprintf "%02x" (Char.code ch)) (String.to_seq s)))

let null id rule = Value.Null { Value.null_id = id; null_rule = rule }

(* Two relations over every scalar type, marked nulls in both, and
   lineage on two rows.  Facts are inserted out of order so the
   snapshot's sort shows. *)
(* The intern table keeps the first rule tag it saw for a null id, so
   the golden's hand-made null 7 must not meet one an earlier suite
   minted: a reset starts a fresh epoch. *)
let golden_node () =
  Value.reset_null_counter ();
  let cfg =
    parse_config
      {|node a {
  relation people(id: int, name: string, score: float, active: bool);
  relation pairs(x: int, y: string);
  fact people(3, "carol", 2.5, true);
  fact people(1, "alice", -0.75, false);
  fact pairs(2, "b");
  fact pairs(-1, "a");
}|}
  in
  let node = Node.create (Option.get (Config.node cfg "a")) in
  let store = node.Node.store in
  let add rel t = ignore (Database.insert store rel t) in
  let import rel t rule hops at =
    let since = Relation.cardinal (Database.relation store rel) in
    add rel t;
    Lineage.record node.Node.lineage ~rel ~since ~upto:(since + 1)
      { Lineage.li_rule = rule; li_hops = hops; li_at = at }
  in
  import "people" (tup [ i 2; null 7 "r_people"; Value.Float 1e10; Value.Bool true ])
    "r_people" 3 1.0;
  import "pairs" (tup [ null 4 "r_pairs"; s "a" ]) "r_pairs" 2 0.5;
  add "pairs" (tup [ i 2; null 5 "r_pairs" ]);
  node

let snapshot_golden =
  String.concat ""
    [
      "0410010007725f70616972730205706169727304000000000000e03f01020508";
      "010204016110010608725f70656f706c65080670656f706c6506000000000000";
      "f03f01040004050e0701000000205fa002420410000303020001020502000402";
      "0a0162020004050a0110000902040002020c05616c69636501000000000000e8";
      "bf03040006020e056361726f6c01000000000000044004";
    ]

let test_snapshot () =
  Alcotest.(check string) "snapshot bytes" snapshot_golden
    (hex (Durable.encode_snapshot (golden_node ())))

(* The golden snapshot rebuilds the golden node: the same store, and
   every tuple with the same origin. *)
let test_snapshot_round_trip () =
  let node = golden_node () in
  let backend = Codb_store.Backend.memory () in
  let snapshot = Durable.encode_snapshot node in
  Codb_store.Wal.snapshot_now
    (Codb_store.Wal.create ~backend ~snapshot_every:1000
       ~take_snapshot:(fun () -> snapshot) ());
  let fresh = Node.create node.Node.decl in
  let opts = { Codb_core.Options.default with durability = Codb_core.Options.Dur_wal } in
  let rv = Durable.recover fresh opts ~backend in
  Alcotest.(check bool) "read the snapshot" true rv.Durable.rv_had_snapshot;
  Alcotest.(check bool) "same store" true
    (Database.equal_contents node.Node.store fresh.Node.store);
  Alcotest.(check bool) "same origins" true (origins node = origins fresh);
  Alcotest.(check bool) "the import" true
    (Node.explain fresh ~rel:"pairs" (tup [ null 4 "r_pairs"; s "a" ])
    = Some (Lineage.Imported { Lineage.li_rule = "r_pairs"; li_hops = 2; li_at = 0.5 }))

let records =
  [
    Durable.Insert
      { rel = "pairs"; rows = packed [ tup [ i 2; s "b" ]; tup [ null 4 "r_pairs"; s "a" ] ] };
    Durable.Import
      { rule = "r1"; rel = "pairs"; hops = 2; at = 0.125;
        rows = packed [ tup [ i 5; s "b" ]; tup [ i 6; null 9 "r1" ] ] };
    Durable.Seq_reserve { upto = 128 };
    Durable.Sub_add { sub_id = "s1"; owner = Durable.Olocal; query_text = "a(x) <- b(x)" };
    Durable.Sub_add
      { sub_id = "s2"; owner = Durable.Oremote (Peer_id.of_string "n3");
        query_text = "a(x) <- b(x)" };
    Durable.Sub_remove { sub_id = "s1" };
    Durable.Mirror_add
      { sub_id = "m1"; host = Peer_id.of_string "n2"; query_text = "a(x) <- b(x)" };
    Durable.Mirror_remove { sub_id = "m1" };
    Durable.Seen_keys { keys = [ "n0#3"; "n2#17" ] };
  ]

let record_goldens =
  [
    "10000005706169727302020004020201620205080407725f706169727302060161";
    "1001080272310104000000000000c03f0202000a020302000c051209";
    "10028001";
    "10030a027331000c61287829203c2d2062287829";
    "10030c027332010e026e330c61287829203c2d2062287829";
    "10040b";
    "100510026d3112026e320c61287829203c2d2062287829";
    "100611";
    "100702046e302333056e32233137";
  ]

let test_records () =
  (* one stream dictionary, in record order, as the log writes them *)
  let dict = Codec.Dict.sender () in
  Alcotest.(check (list string)) "record bytes" record_goldens
    (List.map (fun r -> hex (Durable.encode_record ~dict r)) records)

let payloads =
  [
    Payload.Answer_delta
      { sub_id = "n0/s1"; adds = packed [ tup [ i 1; s "x" ]; tup [ null 3 "r"; s "y" ] ];
        retracts = packed [ tup [ Value.Float 0.5; Value.Bool false ] ]; tag = "u:n0/1" };
    Payload.Answer_batch
      {
        entries =
          [
            { Payload.se_sub = "n0/s1"; se_adds = packed [ tup [ i 1; s "x" ] ];
              se_retracts = []; se_tag = "seed" };
            { Payload.se_sub = "n0/s2"; se_adds = [];
              se_retracts = packed [ tup [ s "x"; null 3 "r" ] ]; se_tag = "u:n0/1" };
          ];
      };
  ]

let payload_goldens =
  [
    "001500056e302f73310206753a6e302f31020200020204017802050606017202080179010201000000000000e03f03";
    "001602010a0473656564010200020205000c056e302f7332030001020205050607";
  ]

let test_payloads () =
  (* linked: one link dictionary across both messages, so the second
     carries back-references to strings the first introduced *)
  let link = Codec.Dict.sender () in
  Alcotest.(check (list string)) "payload bytes" payload_goldens
    (List.map (fun p -> hex (Payload.encode ~link p)) payloads)

let suite =
  [
    Alcotest.test_case "snapshot bytes" `Quick test_snapshot;
    Alcotest.test_case "the golden snapshot round-trips" `Quick test_snapshot_round_trip;
    Alcotest.test_case "one record of each kind" `Quick test_records;
    Alcotest.test_case "answer delta and batch on a link" `Quick test_payloads;
  ]
