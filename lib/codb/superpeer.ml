module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network
module Message = Codb_net.Message
module Pretty = Codb_cq.Pretty

let peer_name = "superpeer"

type t = {
  sp_id : Peer_id.t;
  sp_net : Payload.t Network.t;
  mutable sp_peers : Peer_id.t list;
  mutable sp_version : int;
  mutable sp_collected : Stats.snapshot list;
}

let id sp = sp.sp_id

let on_message sp (msg : Payload.t Message.t) =
  match msg.Message.payload with
  | Payload.Stats_response { stats } -> sp.sp_collected <- stats :: sp.sp_collected
  | Payload.Seq { seq; inner = _ } ->
      (* the super-peer keeps no transport state: acknowledge so the
         sender stops retransmitting, ignore the content as before *)
      ignore
        (Network.send sp.sp_net ~src:sp.sp_id ~dst:msg.Message.src
           (Payload.Seq_ack { seq }))
  | Payload.Seq_ack _ -> ()
  | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
  | Payload.Update_link_closed _
  | Payload.Update_ack _ | Payload.Update_terminated _ | Payload.Query_request _
  | Payload.Query_data _ | Payload.Query_done _ | Payload.Rules_file _
  | Payload.Start_update | Payload.Stats_request | Payload.Discovery_probe _
  | Payload.Discovery_reply _ | Payload.Sub_register _ | Payload.Sub_registered _
  | Payload.Sub_unregister _ | Payload.Answer_delta _ | Payload.Answer_batch _ ->
      ()

let create ~net ~peers =
  let sp_id = Peer_id.of_string peer_name in
  Network.add_peer net sp_id;
  let sp =
    { sp_id; sp_net = net; sp_peers = []; sp_version = 0; sp_collected = [] }
  in
  Network.set_handler net sp_id (on_message sp);
  let attach peer =
    Network.connect net sp_id peer;
    sp.sp_peers <- peer :: sp.sp_peers
  in
  List.iter attach peers;
  sp.sp_peers <- List.rev sp.sp_peers;
  sp

let track sp peer =
  if not (List.exists (Peer_id.equal peer) sp.sp_peers) then begin
    Network.connect sp.sp_net sp.sp_id peer;
    sp.sp_peers <- sp.sp_peers @ [ peer ]
  end

let send sp ~dst payload = ignore (Network.send sp.sp_net ~src:sp.sp_id ~dst payload)

let broadcast sp payload = List.iter (fun peer -> send sp ~dst:peer payload) sp.sp_peers

let broadcast_rules sp cfg =
  sp.sp_version <- sp.sp_version + 1;
  let text = Pretty.config_to_string cfg in
  broadcast sp (Payload.Rules_file { version = sp.sp_version; text });
  sp.sp_version

let trigger_update sp ~at = send sp ~dst:at Payload.Start_update

let request_stats sp =
  sp.sp_collected <- [];
  broadcast sp Payload.Stats_request

let collected sp =
  List.sort
    (fun a b -> Peer_id.compare a.Stats.snap_node b.Stats.snap_node)
    sp.sp_collected
