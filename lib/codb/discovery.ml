module Peer_id = Codb_net.Peer_id

let me (rt : Runtime.t) = rt.node.Node.node_id

let absorb (rt : Runtime.t) peers =
  let mine = me rt in
  let keep acc peer =
    if Peer_id.equal peer mine then acc else Peer_id.Set.add peer acc
  in
  rt.node.Node.known_peers <- List.fold_left keep rt.node.Node.known_peers peers

let check_ttl ttl =
  if ttl < 0 then Error (Printf.sprintf "discovery ttl must be >= 0 (got %d)" ttl)
  else Ok ()

let start rt ~ttl =
  (match check_ttl ttl with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Discovery.start: " ^ reason));
  let probe_id = Node.fresh_ref rt.Runtime.node in
  Hashtbl.replace rt.Runtime.node.Node.seen_probes probe_id ();
  let neighbours = rt.Runtime.neighbours () in
  absorb rt neighbours;
  let probe = Payload.Discovery_probe { probe_id; ttl; path = [ me rt ] } in
  List.iter (fun peer -> ignore (Reliable.send_noted rt ~dst:peer probe)) neighbours;
  probe_id

(* Route a reply one hop back along the recorded path. *)
let send_reply rt ~probe_id ~route ~peers =
  match route with
  | [] -> absorb rt peers
  | next :: rest ->
      ignore
        (Reliable.send_noted rt ~dst:next
           (Payload.Discovery_reply { probe_id; path = rest; peers }))

let on_probe rt ~probe_id ~ttl ~path =
  if not (Hashtbl.mem rt.Runtime.node.Node.seen_probes probe_id) then begin
    Hashtbl.replace rt.Runtime.node.Node.seen_probes probe_id ();
    absorb rt path;
    let neighbours = rt.Runtime.neighbours () in
    (* Answer with ourselves and our neighbourhood, back along the
       reverse of the probe's path. *)
    send_reply rt ~probe_id ~route:(List.rev path) ~peers:(me rt :: neighbours);
    if ttl > 0 then begin
      let next_path = path @ [ me rt ] in
      let forward peer =
        if not (List.exists (Peer_id.equal peer) next_path) then
          ignore
            (Reliable.send_noted rt ~dst:peer
               (Payload.Discovery_probe { probe_id; ttl = ttl - 1; path = next_path }))
      in
      List.iter forward neighbours
    end
  end

let handle rt ~src payload =
  ignore src;
  match payload with
  | Payload.Discovery_probe { probe_id; ttl; path } -> on_probe rt ~probe_id ~ttl ~path
  | Payload.Discovery_reply { probe_id; path; peers } ->
      send_reply rt ~probe_id ~route:path ~peers
  | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
  | Payload.Update_link_closed _
  | Payload.Update_ack _ | Payload.Update_terminated _ | Payload.Query_request _
  | Payload.Query_data _ | Payload.Query_done _ | Payload.Rules_file _
  | Payload.Start_update | Payload.Stats_request | Payload.Stats_response _
  | Payload.Seq _ | Payload.Seq_ack _ | Payload.Sub_register _
  | Payload.Sub_registered _ | Payload.Sub_unregister _ | Payload.Answer_delta _
  | Payload.Answer_batch _ ->
      ()
