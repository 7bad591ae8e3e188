module Peer_id = Codb_net.Peer_id

let relay_of rt = rt.Runtime.node.Node.relay

let stats_of rt = rt.Runtime.node.Node.stats

(* [Stats_response] goes to the super-peer, which keeps no transport
   state; it stays unframed (it is also the largest message, and the
   collection loop re-requests on its own). *)
let frame_eligible = function Payload.Stats_response _ -> false | _ -> true

let rec arm_timer rt relay ~seq entry =
  let opts = rt.Runtime.opts in
  let delay = Options.rto opts entry.Relay.e_attempts in
  rt.Runtime.schedule ~delay (fun () ->
      if not entry.Relay.e_settled then
        if entry.Relay.e_attempts >= opts.Options.max_retries then begin
          ignore (Relay.settle relay seq);
          Stats.note_give_up (stats_of rt);
          Option.iter (fun f -> f ~ok:false) entry.Relay.e_on_settled
        end
        else begin
          entry.Relay.e_attempts <- entry.Relay.e_attempts + 1;
          Stats.note_retransmit (stats_of rt);
          ignore (rt.Runtime.send ~dst:entry.Relay.e_dst entry.Relay.e_payload);
          arm_timer rt relay ~seq entry
        end)

(* The relay that tracks this node's deliveries, if the transport is
   on and the node carries one. *)
let tracking_relay rt = if Options.reliable rt.Runtime.opts then relay_of rt else None

let tracks_delivery rt = Option.is_some (tracking_relay rt)

let send ?on_settled rt ~dst payload =
  match tracking_relay rt with
  | Some relay when frame_eligible payload ->
      let seq = Relay.fresh_seq relay in
      (* chunked sequence reservation: a recovered node must never
         reuse a sequence number its peers may have recorded *)
      Durable.note_seq rt.Runtime.node seq;
      let framed = Payload.Seq { seq; inner = payload } in
      let entry =
        {
          Relay.e_dst = dst;
          e_payload = framed;
          e_attempts = 0;
          e_settled = false;
          e_on_settled = on_settled;
        }
      in
      Relay.register relay ~seq entry;
      (* the transport has custody now: even if the pipe is closed this
         instant, a retransmission may find it reopened (link flaps) *)
      ignore (rt.Runtime.send ~dst framed);
      arm_timer rt relay ~seq entry;
      true
  | Some _ | None -> rt.Runtime.send ~dst payload

let send_noted ?on_settled rt ~dst payload =
  let ok = send ?on_settled rt ~dst payload in
  if not ok then Stats.note_send_drop (stats_of rt);
  ok

let on_ack rt seq =
  match relay_of rt with
  | None -> ()
  | Some relay -> (
      match Relay.settle relay seq with
      | None -> ()  (* duplicate or post-give-up ack *)
      | Some entry -> Option.iter (fun f -> f ~ok:true) entry.Relay.e_on_settled)

let on_seq rt ~src ~seq ~process inner =
  (* Always re-ack, even for duplicates: the previous ack may be the
     message that was lost.  Acks are raw — acking acks would never
     converge. *)
  ignore (rt.Runtime.send ~dst:src (Payload.Seq_ack { seq }));
  match relay_of rt with
  | None -> process inner
  | Some relay ->
      if Relay.mark_seen relay ~src ~seq then process inner
      else Stats.note_dup_suppressed (stats_of rt)
