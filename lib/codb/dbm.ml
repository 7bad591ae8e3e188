module Message = Codb_net.Message
module Database = Codb_relalg.Database

let src_log = Logs.Src.create "codb.dbm" ~doc:"coDB database manager"

module Log = (val Logs.src_log src_log : Logs.LOG)

let rec dispatch (rt : Runtime.t) ~src ~bytes payload =
  match payload with
  | Payload.Seq { seq; inner } ->
      Reliable.on_seq rt ~src ~seq inner ~process:(fun inner ->
          dispatch rt ~src ~bytes inner)
  | Payload.Seq_ack { seq } -> Reliable.on_ack rt seq
  | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
  | Payload.Update_link_closed _ | Payload.Update_ack _ | Payload.Update_terminated _ ->
      Update.handle rt ~src ~bytes payload
  | Payload.Query_request _ | Payload.Query_data _ | Payload.Query_done _ ->
      Query_engine.handle rt ~src ~bytes payload
  | Payload.Discovery_probe _ | Payload.Discovery_reply _ ->
      Discovery.handle rt ~src payload
  | Payload.Rules_file { version; text } -> (
      match Reconfigure.handle_text rt ~version text with
      | Ok () -> ()
      | Error e -> Log.err (fun m -> m "rules file rejected: %s" e))
  | Payload.Start_update ->
      let node = rt.Runtime.node in
      let uid = Ids.update_id node.Node.node_id (Node.fresh_serial node) in
      Update.initiate rt uid
  | Payload.Stats_request ->
      let node = rt.Runtime.node in
      let stats =
        Stats.snapshot ~store_tuples:(Database.cardinal node.Node.store) node.Node.stats
      in
      ignore (Reliable.send_noted rt ~dst:src (Payload.Stats_response { stats }))
  | Payload.Stats_response _ ->
      (* only the super-peer aggregates statistics *)
      ()
  | Payload.Sub_register _ | Payload.Sub_registered _ | Payload.Sub_unregister _
  | Payload.Answer_delta _ | Payload.Answer_batch _ ->
      Sub_engine.handle rt ~src payload

let handle (rt : Runtime.t) (msg : Payload.t Message.t) =
  dispatch rt ~src:msg.Message.src ~bytes:msg.Message.size msg.Message.payload
