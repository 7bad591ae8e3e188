module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Parser = Codb_cq.Parser

let src_log = Logs.Src.create "codb.reconfigure" ~doc:"coDB topology changes"

module Log = (val Logs.src_log src_log : Logs.LOG)

let apply (rt : Runtime.t) ~version cfg =
  if version <= rt.node.Node.rules_version then false
  else begin
    let node = rt.Runtime.node in
    let name = Peer_id.to_string node.Node.node_id in
    let old_acquaintances = node.Node.acquaintances in
    node.Node.rules_version <- version;
    Node.set_rules node
      ~outgoing:(Config.rules_importing_at cfg name)
      ~incoming:(Config.rules_sourced_at cfg name);
    let new_acquaintances = node.Node.acquaintances in
    (* Create the pipes the new rules need... *)
    List.iter rt.Runtime.connect new_acquaintances;
    (* ...and close the pipes no rule is assigned to any more. *)
    let obsolete peer = not (List.exists (Peer_id.equal peer) new_acquaintances) in
    List.iter
      (fun peer -> if obsolete peer then rt.Runtime.disconnect peer)
      old_acquaintances;
    Log.debug (fun m ->
        m "%s: rules v%d installed (%d out, %d in)" name version
          (List.length node.Node.outgoing)
          (List.length node.Node.incoming));
    true
  end

let handle_text rt ~version text =
  match Parser.parse_config text with
  | Error e -> Error e
  | Ok cfg ->
      let _ = apply rt ~version cfg in
      Ok ()
