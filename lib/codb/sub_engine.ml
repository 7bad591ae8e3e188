module Sub = Codb_sub.Subscription
module Registry = Codb_sub.Registry
module Mirror = Codb_sub.Mirror
module Peer_id = Codb_net.Peer_id
module Database = Codb_relalg.Database
module Eval = Codb_cq.Eval
module Query = Codb_cq.Query
module Parser = Codb_cq.Parser
module Pretty = Codb_cq.Pretty

let scounters rt = Stats.sub rt.Runtime.node.Node.stats

let with_counters rt f = Stats.with_eval_counters (scounters rt).Stats.sb_eval f

let source rt = Eval.of_database rt.Runtime.node.Node.store

let query_text q = Fmt.str "%a" Pretty.query q

(* Epoch agreement with the one-shot query cache: the instant an
   answer delta becomes observable (host callback about to run, wire
   push about to leave), cached answers that predate the store change
   it reflects must die.  Otherwise a client could see the new answer
   arrive by subscription and then get the old answer set by asking
   the same query one-shot — the update path only stales epochs at
   update finalization, which is too late for mid-update deltas. *)
let stale_cache rt peers =
  match rt.Runtime.node.Node.cache with
  | None -> ()
  | Some cache ->
      let n = Codb_cache.Qcache.note_update cache peers in
      let sb = scounters rt in
      sb.Stats.sb_cache_staled <- sb.Stats.sb_cache_staled + n

(* Every non-empty delta leaves at once: a local client gets it through
   its callback, a remote subscriber as one [Answer_delta]. *)
let deliver rt (entry : Registry.entry) (d : Sub.delta) =
  if not (Sub.delta_is_empty d) then begin
    stale_cache rt [ rt.Runtime.node.Node.node_id ];
    Sub.note_delivered entry.Registry.e_sub;
    let sb = scounters rt in
    sb.Stats.sb_deltas_out <- sb.Stats.sb_deltas_out + 1;
    sb.Stats.sb_adds <- sb.Stats.sb_adds + List.length d.Sub.d_adds;
    sb.Stats.sb_retracts <- sb.Stats.sb_retracts + List.length d.Sub.d_retracts;
    match entry.Registry.e_owner with
    | Registry.Local cb -> Option.iter (fun f -> f d) cb
    | Registry.Remote dst ->
        let payload =
          Payload.Answer_delta
            { sub_id = Sub.id entry.Registry.e_sub; adds = d.Sub.d_adds;
              retracts = d.Sub.d_retracts; tag = d.Sub.d_tag }
        in
        sb.Stats.sb_push_msgs <- sb.Stats.sb_push_msgs + 1;
        sb.Stats.sb_bytes <- sb.Stats.sb_bytes + Payload.encoded_size payload;
        ignore (Reliable.send_noted rt ~dst payload)
  end

let on_store_delta rt ~rel ~since ~delta ~tag =
  match rt.Runtime.node.Node.subs with
  | None -> ()
  | Some reg -> (
      match Registry.affected reg ~rel with
      | [] -> ()
      | entries ->
          let sb = scounters rt in
          let src = source rt in
          let tag = tag () in
          List.iter
            (fun (entry : Registry.entry) ->
              let sub = entry.Registry.e_sub in
              sb.Stats.sb_deltas_in <- sb.Stats.sb_deltas_in + 1;
              let d, dropped =
                with_counters rt (fun () ->
                    Sub.apply_delta sub ~source:src ~delta_rel:rel ~since
                      ~delta ~tag)
              in
              sb.Stats.sb_prefiltered <- sb.Stats.sb_prefiltered + dropped;
              deliver rt entry d)
            entries)

let refresh_all rt ~tag =
  match rt.Runtime.node.Node.subs with
  | None -> ()
  | Some reg ->
      let src = source rt in
      List.iter
        (fun (entry : Registry.entry) ->
          let d =
            with_counters rt (fun () ->
                Sub.refresh entry.Registry.e_sub ~source:src ~tag)
          in
          deliver rt entry d)
        (Registry.entries reg)

let make_sub rt ~sub_id query =
  let opts = rt.Runtime.opts in
  match Node.check_query rt.Runtime.node query with
  | Ok () ->
      Sub.create ~pushdown:opts.Options.pushdown ~sub_id query
  | Error e -> Error e

let register_local rt ?on_delta query =
  let node = rt.Runtime.node in
  match node.Node.subs with
  | None -> Error "subscriptions are disabled (Options.subscriptions)"
  | Some reg -> (
      let sb = scounters rt in
      let reject e =
        sb.Stats.sb_rejected <- sb.Stats.sb_rejected + 1;
        Error e
      in
      match make_sub rt ~sub_id:(Node.fresh_ref node) query with
      | Error e -> reject e
      | Ok sub -> (
          match Registry.register reg sub (Registry.Local on_delta) with
          | Error e -> reject e
          | Ok () ->
              sb.Stats.sb_registered <- sb.Stats.sb_registered + 1;
              Durable.log_sub_add node ~sub_id:(Sub.id sub)
                ~owner:Durable.Olocal ~query_text:(query_text query);
              let d =
                with_counters rt (fun () ->
                    Sub.refresh sub ~source:(source rt) ~tag:"seed")
              in
              deliver rt
                { Registry.e_sub = sub; e_owner = Registry.Local on_delta }
                d;
              Ok (Sub.id sub)))

let unregister_local rt sub_id =
  match rt.Runtime.node.Node.subs with
  | None -> false
  | Some reg ->
      let removed = Registry.unregister reg sub_id in
      if removed then begin
        let sb = scounters rt in
        sb.Stats.sb_unregistered <- sb.Stats.sb_unregistered + 1;
        Durable.log_sub_remove rt.Runtime.node ~sub_id
      end;
      removed

let subscribe_remote rt ~host ?on_delta query =
  let node = rt.Runtime.node in
  if node.Node.subs = None then
    Error "subscriptions are disabled (Options.subscriptions)"
  else
    match Query.well_formed ~allow_existential_head:false query with
    | Error e -> Error e
    | Ok () ->
        let sub_id = Node.fresh_ref node in
        Hashtbl.replace node.Node.sub_mirrors sub_id
          (Mirror.create ~sub_id ~host ?on_delta query);
        Durable.log_mirror_add node ~sub_id ~host
          ~query_text:(query_text query);
        ignore
          (Reliable.send_noted rt ~dst:host
             (Payload.Sub_register { sub_id; query_text = query_text query }));
        Ok sub_id

let unsubscribe_remote rt sub_id =
  let node = rt.Runtime.node in
  match Hashtbl.find_opt node.Node.sub_mirrors sub_id with
  | None -> false
  | Some m ->
      Hashtbl.remove node.Node.sub_mirrors sub_id;
      Durable.log_mirror_remove node ~sub_id;
      ignore
        (Reliable.send_noted rt ~dst:(Mirror.host m)
           (Payload.Sub_unregister { sub_id }));
      true

let mirror rt sub_id = Hashtbl.find_opt rt.Runtime.node.Node.sub_mirrors sub_id

(* After a peer restarts it has forgotten every subscription we hold
   against it, and may have lost answers we mirror: empty each mirror
   and re-send its registration.  The host answers with a fresh
   full-answer snapshot, which refills it. *)
let rearm_towards rt ~host =
  let node = rt.Runtime.node in
  if node.Node.subs <> None then
    List.iter
      (fun (sub_id, m) ->
        if Peer_id.equal (Mirror.host m) host then begin
          let sb = scounters rt in
          sb.Stats.sb_rearmed <- sb.Stats.sb_rearmed + 1;
          Mirror.reset m ~tag:"rearm";
          ignore
            (Reliable.send_noted rt ~dst:host
               (Payload.Sub_register
                  { sub_id; query_text = query_text (Mirror.query m) }))
        end)
      (Node.mirrors_sorted node)

let refuse rt ~dst ~sub_id reason =
  let sb = scounters rt in
  sb.Stats.sb_rejected <- sb.Stats.sb_rejected + 1;
  ignore
    (Reliable.send_noted rt ~dst
       (Payload.Sub_registered { sub_id; accepted = false; reason }))

let on_register rt ~src ~sub_id ~text =
  match rt.Runtime.node.Node.subs with
  | None -> refuse rt ~dst:src ~sub_id "subscriptions are disabled at this node"
  | Some reg -> (
      match Parser.parse_query text with
      | Error e -> refuse rt ~dst:src ~sub_id ("unparsable query: " ^ e)
      | Ok query -> (
          (* a re-register (subscriber re-arming after our restart, or
             a duplicated Sub_register frame) replaces the existing
             registration and answers with a fresh snapshot *)
          let existed = Registry.unregister reg sub_id in
          match make_sub rt ~sub_id query with
          | Error e -> refuse rt ~dst:src ~sub_id e
          | Ok sub -> (
              match Registry.register reg sub (Registry.Remote src) with
              | Error e -> refuse rt ~dst:src ~sub_id e
              | Ok () ->
                  let sb = scounters rt in
                  sb.Stats.sb_registered <- sb.Stats.sb_registered + 1;
                  Durable.log_sub_add rt.Runtime.node ~sub_id
                    ~owner:(Durable.Oremote src) ~query_text:text;
                  ignore
                    (Reliable.send_noted rt ~dst:src
                       (Payload.Sub_registered
                          { sub_id; accepted = true; reason = "" }));
                  let d =
                    with_counters rt (fun () ->
                        Sub.refresh sub ~source:(source rt)
                          ~tag:(if existed then "rearm" else "seed"))
                  in
                  deliver rt
                    { Registry.e_sub = sub; e_owner = Registry.Remote src }
                    d)))

let on_unregister rt ~sub_id =
  match rt.Runtime.node.Node.subs with
  | None -> ()
  | Some reg ->
      if Registry.unregister reg sub_id then begin
        let sb = scounters rt in
        sb.Stats.sb_unregistered <- sb.Stats.sb_unregistered + 1;
        Durable.log_sub_remove rt.Runtime.node ~sub_id
      end

let on_registered rt ~sub_id ~accepted ~reason =
  match mirror rt sub_id with
  | None -> ()
  | Some m ->
      if accepted then Mirror.mark_accepted m else Mirror.mark_rejected m reason

let handle rt ~src payload =
  match payload with
  | Payload.Sub_register { sub_id; query_text = text } ->
      on_register rt ~src ~sub_id ~text
  | Payload.Sub_registered { sub_id; accepted; reason } ->
      on_registered rt ~sub_id ~accepted ~reason
  | Payload.Sub_unregister { sub_id } -> on_unregister rt ~sub_id
  | Payload.Answer_delta { sub_id; adds; retracts; tag } -> (
      match mirror rt sub_id with
      | None -> () (* unsubscribed meanwhile, or this node restarted *)
      | Some m ->
          (* epoch agreement, subscriber side: one-shot answers cached
             from this host predate the delta about to be applied *)
          stale_cache rt [ src ];
          Mirror.apply m { Sub.d_adds = adds; d_retracts = retracts; d_tag = tag })
  | Payload.Answer_batch _ | Payload.Update_request _ | Payload.Update_data _
  | Payload.Update_batch _ | Payload.Update_link_closed _ | Payload.Update_ack _
  | Payload.Update_terminated _ | Payload.Query_request _ | Payload.Query_data _
  | Payload.Query_done _ | Payload.Rules_file _ | Payload.Start_update
  | Payload.Stats_request | Payload.Stats_response _ | Payload.Discovery_probe _
  | Payload.Discovery_reply _ | Payload.Seq _ | Payload.Seq_ack _ ->
      ()
