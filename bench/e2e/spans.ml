(* Outside-in tracing.  Spans are recorded by the benchmark around its
   own calls into the system, never inside it: an op span around each
   insert, update or query; a handler span around every message
   delivery, through a wrapper installed with [Network.handler_of] /
   [Network.set_handler]; and two codec spans under each handler span,
   which re-encode and decode the delivered payload.  Spans stay in
   memory and are summarised (and optionally written out) when the
   pass ends. *)

module System = Codb_core.System
module Payload = Codb_core.Payload
module Network = Codb_net.Network
module Message = Codb_net.Message
module Peer_id = Codb_net.Peer_id
module Eval = Codb_cq.Eval

type span = {
  id : int;
  parent : int;  (** 0 for op spans *)
  op : int;  (** the op span this span belongs to *)
  layer : string;
  t0 : float;  (** wall seconds *)
  t1 : float;
  child_s : float;  (** wall seconds covered by child spans *)
  sim : float;  (** simulated time at the start *)
  alloc : float;  (** bytes allocated, children included *)
  probes : int;
  scans : int;
  safe : bool;  (** handler spans: [Payload.parallel_safe] *)
  dst : string;  (** handler spans: the receiving peer *)
  bytes : int;  (** codec spans: encoded size *)
}

let recorded = ref []

let next_id = ref 0

let current_op = ref 0

(* wall seconds the current op's handler spans have covered so far *)
let op_covered = ref 0.

let codec_errors = ref 0

let reset () =
  recorded := [];
  next_id := 0;
  current_op := 0;
  op_covered := 0.;
  codec_errors := 0

let fresh () =
  incr next_id;
  !next_id

let blank =
  {
    id = 0;
    parent = 0;
    op = 0;
    layer = "";
    t0 = 0.;
    t1 = 0.;
    child_s = 0.;
    sim = 0.;
    alloc = 0.;
    probes = 0;
    scans = 0;
    safe = false;
    dst = "";
    bytes = 0;
  }

let record s = recorded := s :: !recorded

(* The Dbm dispatch families; a reliable-transport frame counts under
   the family of the payload it carries. *)
let rec family = function
  | Payload.Seq { inner; _ } -> family inner
  | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
  | Payload.Update_link_closed _ | Payload.Update_ack _ | Payload.Update_terminated _ ->
      "update"
  | Payload.Query_request _ | Payload.Query_data _ | Payload.Query_done _ -> "query"
  | Payload.Sub_register _ | Payload.Sub_registered _ | Payload.Sub_unregister _
  | Payload.Answer_delta _ | Payload.Answer_batch _ ->
      "sub"
  | Payload.Seq_ack _ -> "transport"
  | Payload.Rules_file _ | Payload.Start_update | Payload.Stats_request
  | Payload.Stats_response _ | Payload.Discovery_probe _ | Payload.Discovery_reply _ ->
      "control"

let families = [ "update"; "query"; "sub"; "transport"; "control" ]

(* Re-encode and decode the delivered payload: the codec's cost,
   measured on exactly the traffic the run produced. *)
let replay ~parent payload =
  match payload with
  | Payload.Stats_response _ -> 0.
  | p ->
      let a0 = Gc.allocated_bytes () in
      let t0 = Unix.gettimeofday () in
      let wire = Payload.encode p in
      let t1 = Unix.gettimeofday () in
      let a1 = Gc.allocated_bytes () in
      (match Payload.decode wire with Ok _ -> () | Error _ -> incr codec_errors);
      let t2 = Unix.gettimeofday () in
      let a2 = Gc.allocated_bytes () in
      let child layer t0 t1 alloc =
        record
          {
            blank with
            id = fresh ();
            parent;
            op = !current_op;
            layer;
            t0;
            t1;
            alloc;
            bytes = String.length wire;
          }
      in
      child "codec.encode" t0 t1 (a1 -. a0);
      child "codec.decode" t1 t2 (a2 -. a1);
      t2 -. t0

(* Wrap one peer's current handler.  A restart installs a fresh
   handler, so the caller wraps the restarted peer again. *)
let wrap_peer sys name =
  let net = System.net sys in
  let peer = Peer_id.of_string name in
  match Network.handler_of net peer with
  | None -> ()
  | Some handle ->
      Network.set_handler net peer (fun (msg : Payload.t Message.t) ->
          let id = fresh () in
          let sim = Network.now net in
          let c0 = Eval.counters () in
          let a0 = Gc.allocated_bytes () in
          let t0 = Unix.gettimeofday () in
          handle msg;
          let c1 = Eval.counters () in
          let codec_s = replay ~parent:id msg.Message.payload in
          let t1 = Unix.gettimeofday () in
          op_covered := !op_covered +. (t1 -. t0);
          record
            {
              blank with
              id;
              parent = !current_op;
              op = !current_op;
              layer = "dbm." ^ family msg.Message.payload;
              t0;
              t1;
              child_s = codec_s;
              sim;
              alloc = Gc.allocated_bytes () -. a0;
              probes = c1.Eval.probes - c0.Eval.probes;
              scans = c1.Eval.scans - c0.Eval.scans;
              safe = Payload.parallel_safe msg.Message.payload;
              dst = name;
            })

let start sys =
  reset ();
  List.iter (wrap_peer sys) (System.node_names sys)

let begin_op () =
  let id = fresh () in
  current_op := id;
  op_covered := 0.;
  id

let end_op id ~layer ~t0 ~t1 ~sim ~alloc =
  current_op := 0;
  record { blank with id; op = id; layer; t0; t1; child_s = !op_covered; sim; alloc }

let spans () = List.sort (fun a b -> Int.compare a.id b.id) !recorded

let has_prefix prefix s =
  String.length s.layer >= String.length prefix
  && String.sub s.layer 0 (String.length prefix) = prefix

let is_op = has_prefix "op."

let is_handler = has_prefix "dbm."

let self_s s = s.t1 -. s.t0 -. s.child_s

(* Amdahl bounds for ROADMAP item 4: deliveries the parallel runtime
   could fan out are maximal runs of consecutive [parallel_safe]
   handler spans at one simulated instant.  A run of width >= 2 (the
   default [par_threshold]) takes at least max(work / p, the busiest
   destination's work) on p domains; everything else stays serial. *)
let par_metrics ~total handlers =
  let runs =
    List.fold_left
      (fun runs s ->
        match runs with
        | (last :: _ as run) :: rest
          when s.safe && last.safe && last.sim = s.sim && last.op = s.op ->
            (s :: run) :: rest
        | _ -> [ s ] :: runs)
      [] handlers
  in
  let runs = List.filter (function s :: _ -> s.safe | [] -> false) runs in
  let batches = List.filter (fun r -> List.length r >= 2) runs in
  let work r = List.fold_left (fun acc s -> acc +. self_s s) 0. r in
  let busiest r =
    let per_dst = Hashtbl.create 8 in
    List.iter
      (fun s ->
        Hashtbl.replace per_dst s.dst
          (self_s s +. Option.value ~default:0. (Hashtbl.find_opt per_dst s.dst)))
      r;
    Hashtbl.fold (fun _ v acc -> Float.max v acc) per_dst 0.
  in
  let batched = List.fold_left (fun acc r -> acc +. work r) 0. batches in
  let handler_s = List.fold_left (fun acc s -> acc +. self_s s) 0. handlers in
  let ceiling p =
    let bound =
      List.fold_left
        (fun acc r -> acc +. Float.max (work r /. float_of_int p) (busiest r))
        0. batches
    in
    if total <= 0. then 1. else total /. (total -. batched +. bound)
  in
  [
    ("par.eligible_frac", "ratio", if handler_s > 0. then batched /. handler_s else 0.);
    ( "par.batch_width_p50",
      "count",
      Stat.median (List.map (fun r -> float_of_int (List.length r)) runs) );
    ("par.ceiling_2", "x", ceiling 2);
    ("par.ceiling_8", "x", ceiling 8);
  ]

(* Per-layer numbers of one traced pass.  [measured_s] is the pass's
   own op wall time, against which the spans' coverage is checked. *)
let summary ~measured_s =
  let all = spans () in
  let ops = List.filter is_op all in
  let handlers = List.filter is_handler all in
  let codec layer = List.filter (fun s -> s.layer = layer) all in
  let sum f l = List.fold_left (fun acc s -> acc +. f s) 0. l in
  let dur s = s.t1 -. s.t0 in
  let op_s = sum dur ops in
  let codec_s = sum dur (codec "codec.encode") +. sum dur (codec "codec.decode") in
  let handler_self = sum self_s handlers in
  let loop_s = sum self_s ops in
  let per_family f =
    let mine = List.filter (fun s -> s.layer = "dbm." ^ f) handlers in
    let codec_alloc =
      let ids = Hashtbl.create 64 in
      List.iter (fun s -> Hashtbl.replace ids s.id ()) mine;
      sum (fun s -> s.alloc)
        (List.filter (fun s -> Hashtbl.mem ids s.parent) (codec "codec.encode" @ codec "codec.decode"))
    in
    [
      ("dbm." ^ f ^ ".calls", "count", float_of_int (List.length mine));
      ("dbm." ^ f ^ ".self_s", "s", sum self_s mine);
      ("dbm." ^ f ^ ".alloc_mb", "MB", (sum (fun s -> s.alloc) mine -. codec_alloc) /. 1e6);
      ("dbm." ^ f ^ ".eval_probes", "count", sum (fun s -> float_of_int s.probes) mine);
      ("dbm." ^ f ^ ".eval_scans", "count", sum (fun s -> float_of_int s.scans) mine);
    ]
  in
  let codec_bytes = sum (fun s -> float_of_int s.bytes) (codec "codec.encode") in
  List.concat_map per_family families
  @ [
      ("net.loop_self_s", "s", loop_s);
      ("codec.encode_s", "s", sum dur (codec "codec.encode"));
      ("codec.decode_s", "s", sum dur (codec "codec.decode"));
      ("codec.bytes", "B", codec_bytes);
      ("codec.ns_per_byte", "ns/B", if codec_bytes > 0. then codec_s *. 1e9 /. codec_bytes else 0.);
      ( "trace.coverage",
        "ratio",
        if measured_s > 0. then (handler_self +. codec_s +. loop_s) /. measured_s else 1. );
    ]
  @ par_metrics ~total:(op_s -. codec_s) handlers

let write path =
  let all = spans () in
  let base = match all with s :: _ -> s.t0 | [] -> 0. in
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"layer\":%S,\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f,\"sim_s\":%.9f,\"alloc_bytes\":%.0f,\"eval_probes\":%d,\"eval_scans\":%d}\n"
        s.id s.parent s.op s.layer (s.t0 -. base) (s.t1 -. base) (self_s s) s.sim s.alloc
        s.probes s.scans)
    all;
  close_out oc
