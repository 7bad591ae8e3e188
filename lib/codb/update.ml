module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Tuple_set = Codb_relalg.Relation.Tuple_set
module Eval = Codb_cq.Eval
module U = Update_state

let src_log = Logs.Src.create "codb.update" ~doc:"coDB global update algorithm"

module Log = (val Logs.src_log src_log : Logs.LOG)

let head_rel (r : Config.rule_decl) = r.Config.rule_query.Query.head.Atom.rel

let importer_of (r : Config.rule_decl) = Peer_id.of_string r.Config.importer

let source_of (r : Config.rule_decl) = Peer_id.of_string r.Config.source

let rule_ids rules = List.map (fun r -> r.Config.rule_id) rules

let stat (rt : Runtime.t) uid = Stats.update_stat rt.node.Node.stats ~now:(rt.now ()) uid

(* Is [st] still the state the node knows for this update?  A crash
   clears the table; timers and transport callbacks armed before the
   crash must not mutate the orphaned record (or a namesake created
   after a restart). *)
let is_current (rt : Runtime.t) (st : U.t) =
  match Node.update_state rt.Runtime.node st.U.ust_update with
  | Some current -> current == st
  | None -> false

let finalize rt (st : U.t) =
  if not st.U.ust_finished then begin
    st.U.ust_finished <- true;
    let us = stat rt st.U.ust_update in
    us.Stats.us_finished <- Some (rt.Runtime.now ());
    (* the update may have changed our store and every peer the flood
       reached; cached answers that rest on any of them are now
       suspect.  Conservative: bump ourselves and all acquaintances
       (sub-queries only ever contact acquaintances, so these are the
       only peers a cache stamp can mention). *)
    match rt.Runtime.node.Node.cache with
    | Some cache ->
        let staled =
          Codb_cache.Qcache.note_update cache
            (rt.Runtime.node.Node.node_id :: Node.acquaintances rt.Runtime.node)
        in
        us.Stats.us_cache_staled <- us.Stats.us_cache_staled + staled
    | None -> ()
  end

(* May this node export data?  Principle (d): an inconsistent node
   keeps routing but never contributes its own (tainted) data. *)
let may_export (rt : Runtime.t) =
  rt.node.Node.decl.Config.constraints = [] || Node.is_consistent rt.node

let close_everything (st : U.t) =
  Hashtbl.iter (fun rule _ -> U.close_out st rule) (Hashtbl.copy st.U.ust_out);
  Hashtbl.iter (fun rule _ -> U.close_in st rule) (Hashtbl.copy st.U.ust_in)

let flood_terminated rt (st : U.t) ~except =
  let forward peer =
    let skip = match except with Some p -> Peer_id.equal p peer | None -> false in
    if not skip then
      ignore
        (Reliable.send_noted rt ~dst:peer
           (Payload.Update_terminated { update_id = st.U.ust_update }))
  in
  List.iter forward (Node.acquaintances rt.Runtime.node)

let on_terminated rt (st : U.t) ~src =
  if not st.U.ust_terminated then begin
    st.U.ust_terminated <- true;
    close_everything st;
    finalize rt st;
    flood_terminated rt st ~except:(Some src)
  end

(* Dijkstra–Scholten: a node disengages (acknowledging the message
   that engaged it) once everything it sent has been acknowledged AND
   nothing is waiting in a wire buffer.  The pending check is what
   keeps batching termination-safe: buffered-but-unsent data keeps this
   node engaged, hence its parent's deficit positive, hence the
   initiator unable to declare quiescence while tuples are in flight
   anywhere — the accounting the seed did per message now holds per
   batch. *)
let check_disengage rt (st : U.t) =
  if st.U.ust_engaged && st.U.ust_deficit = 0 && U.pending_tuples st = 0 then
    if st.U.ust_initiator then begin
      st.U.ust_engaged <- false;
      st.U.ust_terminated <- true;
      close_everything st;
      finalize rt st;
      flood_terminated rt st ~except:None
    end
    else begin
      match st.U.ust_parent with
      | Some parent ->
          st.U.ust_engaged <- false;
          st.U.ust_parent <- None;
          ignore
            (Reliable.send_noted rt ~dst:parent
               (Payload.Update_ack { update_id = st.U.ust_update }))
      | None ->
          Log.warn (fun m ->
              m "%a: engaged without a parent in %a" Peer_id.pp rt.Runtime.node.Node.node_id
                Ids.pp_update st.U.ust_update)
    end

(* Send a message that takes part in termination accounting: the
   receiver owes us an acknowledgement.  Under the reliable transport
   the deficit must also be compensated when the transport gives up
   after its last retry: the receiver will never send the protocol
   acknowledgement either, and without the compensation the sender
   (hence the whole engagement tree) would wait forever. *)
let send_counted (rt : Runtime.t) (st : U.t) ~dst payload =
  let on_settled ~ok =
    if (not ok) && is_current rt st && not st.U.ust_terminated then begin
      st.U.ust_deficit <- max 0 (st.U.ust_deficit - 1);
      check_disengage rt st
    end
  in
  if Reliable.send_noted ~on_settled rt ~dst payload then
    st.U.ust_deficit <- st.U.ust_deficit + 1

let reliable_mode (rt : Runtime.t) =
  Options.reliable rt.Runtime.opts && Option.is_some rt.Runtime.node.Node.relay

let send_deferred_closes rt (st : U.t) ~dst =
  List.iter
    (fun (rule_id, global) ->
      send_counted rt st ~dst
        (Payload.Update_link_closed { update_id = st.U.ust_update; rule_id; global }))
    (U.take_deferred_closes st ~dst)

(* Data messages additionally maintain the per-destination in-flight
   count, so a link close held back by {!close_link} follows its data
   out as soon as the last message settles.  A settlement with
   [ok = false] still releases the closes: the receiver missed those
   tuples for good, and holding the close any longer would only stall
   termination on top of the data loss. *)
let send_data_counted rt (st : U.t) ~dst payload =
  if not (reliable_mode rt) then send_counted rt st ~dst payload
  else begin
    let on_settled ~ok =
      if is_current rt st then begin
        U.decr_unacked st ~dst;
        if not st.U.ust_terminated then begin
          if not ok then st.U.ust_deficit <- max 0 (st.U.ust_deficit - 1);
          if U.dst_unacked st ~dst = 0 then send_deferred_closes rt st ~dst;
          if not ok then check_disengage rt st
        end
      end
    in
    if Reliable.send_noted ~on_settled rt ~dst payload then begin
      st.U.ust_deficit <- st.U.ust_deficit + 1;
      U.incr_unacked st ~dst
    end
  end

(* Close a link towards [dst].  FIFO pipes used to guarantee that the
   close arrived after every data message sent before it; the reliable
   transport's retransmissions (and injected jitter) can reorder the
   two, making the importer integrate late data without forwarding it.
   So under the reliable transport the close waits until all data to
   [dst] has settled. *)
let close_link rt (st : U.t) ~dst ~rule_id =
  let global = not st.U.ust_scoped in
  if reliable_mode rt && U.dst_unacked st ~dst > 0 then
    U.defer_close st ~dst ~rule:rule_id ~global
  else
    send_counted rt st ~dst
      (Payload.Update_link_closed { update_id = st.U.ust_update; rule_id; global })

(* The initiator's last resort: bounded retries bound the transport,
   but a crashed-and-gone acquaintance (or an ack chain cut by a
   permanent partition) can still leave the engagement tree waiting.
   When nothing has moved for a whole failure-deadline window the
   initiator declares the update over — explicitly marked forced, so
   reports show the fix-point may be incomplete. *)
let force_terminate rt (st : U.t) =
  if not st.U.ust_terminated then begin
    Log.warn (fun m ->
        m "%a: forcing termination of stalled %a (deficit %d, pending %d)" Peer_id.pp
          rt.Runtime.node.Node.node_id Ids.pp_update st.U.ust_update st.U.ust_deficit
          (U.pending_tuples st));
    let us = stat rt st.U.ust_update in
    us.Stats.us_forced <- true;
    Stats.note_forced_termination rt.Runtime.node.Node.stats;
    st.U.ust_engaged <- false;
    st.U.ust_terminated <- true;
    close_everything st;
    finalize rt st;
    flood_terminated rt st ~except:None
  end

let rec arm_watchdog rt (st : U.t) ~last_activity =
  let window = Options.failure_deadline rt.Runtime.opts in
  rt.Runtime.schedule ~delay:window (fun () ->
      if is_current rt st && (not st.U.ust_terminated) && not st.U.ust_finished then
        if st.U.ust_activity = last_activity then force_terminate rt st
        else arm_watchdog rt st ~last_activity:st.U.ust_activity)

(* Drain [dst]'s wire buffer into a single counted message. *)
let flush_dst rt (st : U.t) us dst =
  match U.take_buffer st ~dst with
  | [] -> ()
  | entries ->
      let payload_entries =
        List.map
          (fun (rule, hops, tuples) ->
            { Payload.be_rule = rule; be_hops = hops; be_tuples = tuples })
          entries
      in
      let tuple_count =
        List.fold_left (fun acc e -> acc + List.length e.Payload.be_tuples) 0
          payload_entries
      in
      send_data_counted rt st ~dst
        (Payload.Update_batch
           { update_id = st.U.ust_update; entries = payload_entries;
             global = not st.U.ust_scoped });
      us.Stats.us_batches <- us.Stats.us_batches + 1;
      us.Stats.us_batch_tuples <- us.Stats.us_batch_tuples + tuple_count;
      Stats.note_sent_to us dst

(* Arm the flush window for [dst] unless one is already pending.  The
   scheduled action runs as its own simulator event, outside any message
   processing, so it must re-run the disengage check itself: if the
   flush's sends are all dropped (pipes closed meanwhile) the node may
   owe its parent an acknowledgement right now. *)
let schedule_flush rt (st : U.t) us dst =
  if not (U.flush_scheduled st ~dst) then begin
    U.set_flush_scheduled st ~dst true;
    rt.Runtime.schedule ~delay:rt.Runtime.opts.Options.batch_window (fun () ->
        if is_current rt st then begin
          U.set_flush_scheduled st ~dst false;
          flush_dst rt st us dst;
          check_disengage rt st
        end)
  end

let send_on_incoming rt (st : U.t) us (inc : Config.rule_decl) ~hops tuples =
  let opts = rt.Runtime.opts in
  let rule = inc.Config.rule_id in
  let fresh =
    if opts.Options.use_sent_cache then begin
      let fresh = List.filter (fun t -> not (U.already_sent st rule t)) tuples in
      U.add_sent st rule fresh;
      fresh
    end
    else tuples
  in
  if fresh <> [] then begin
    let dst = importer_of inc in
    if opts.Options.batch_window > 0.0 then begin
      let offered = List.length fresh in
      let added = U.buffer_add st ~dst ~rule ~hops fresh in
      us.Stats.us_coalesced <- us.Stats.us_coalesced + (offered - added);
      (* Flushing on the size bound sends immediately but never
         disengages: callers are mid-processing and the surrounding
         engage_and_process / scheduled event re-checks afterwards. *)
      if U.buffer_size st ~dst >= opts.Options.batch_max_tuples then
        flush_dst rt st us dst
      else schedule_flush rt st us dst
    end
    else begin
      send_data_counted rt st ~dst
        (Payload.Update_data
           { update_id = st.U.ust_update; rule_id = rule; tuples = fresh; hops;
             global = not st.U.ust_scoped });
      Stats.note_sent_to us dst
    end
  end

(* Close every still-open incoming link whose relevant outgoing links
   are all closed, notifying the importers (paper: "an acquaintance
   closes an incoming link if all its outgoing links which are
   relevant for this incoming link are closed").  Any data still
   buffered for the importer must flush first, and {!close_link} then
   keeps [Update_link_closed] from overtaking its own data and making
   the importer close the link early. *)
let maybe_close_incoming rt (st : U.t) =
  let close_if_ready (inc : Config.rule_decl) =
    if U.in_state st inc.Config.rule_id = U.Link_open then begin
      let relevant = Deps.relevant_outgoing rt.Runtime.node.Node.outgoing ~incoming:inc in
      let closed (o : Config.rule_decl) = U.out_state st o.Config.rule_id = U.Link_closed in
      if List.for_all closed relevant then begin
        U.close_in st inc.Config.rule_id;
        let dst = importer_of inc in
        flush_dst rt st (stat rt st.U.ust_update) dst;
        close_link rt st ~dst ~rule_id:inc.Config.rule_id
      end
    end
  in
  List.iter close_if_ready rt.Runtime.node.Node.incoming

let node_closed_check rt (st : U.t) = if U.all_out_closed st then finalize rt st

(* First contact with an update: flood the request, answer every
   incoming link from local data, close independent incoming links. *)
let first_contact rt (st : U.t) ~exclude =
  let uid = st.U.ust_update in
  let us = stat rt uid in
  let flood peer =
    let skip = match exclude with Some p -> Peer_id.equal p peer | None -> false in
    if not skip then
      send_counted rt st ~dst:peer
        (Payload.Update_request { update_id = uid; scope = Payload.Global })
  in
  List.iter flood (Node.acquaintances rt.Runtime.node);
  List.iter
    (fun (o : Config.rule_decl) -> Stats.note_queried us (source_of o))
    rt.Runtime.node.Node.outgoing;
  if may_export rt then
    List.iter
      (fun (inc : Config.rule_decl) ->
        let tuples =
          Stats.with_eval_counters us.Stats.us_eval (fun () ->
              Wrapper.eval_rule_full
                rt.Runtime.node.Node.store inc)
        in
        send_on_incoming rt st us inc ~hops:1 tuples)
      rt.Runtime.node.Node.incoming;
  maybe_close_incoming rt st;
  node_closed_check rt st

(* Integrate one rule's worth of received tuples and recompute the
   dependent incoming links (the per-message statistics are the
   caller's job: one [Update_data] is one entry, one [Update_batch] is
   several). *)
let integrate_entry rt (st : U.t) us ~rule_id ~tuples ~hops =
  us.Stats.us_max_hops <- max us.Stats.us_max_hops hops;
  match Node.rule_out rt.Runtime.node rule_id with
  | None ->
      (* the rule was dropped by a runtime topology change *)
      Log.debug (fun m -> m "data for unknown outgoing rule %s ignored" rule_id)
  | Some o ->
      let rel = head_rel o in
      let integration =
        Wrapper.integrate ~opts:rt.Runtime.opts ~rule_id rt.Runtime.node.Node.store ~rel
          tuples
      in
      us.Stats.us_new_tuples <- us.Stats.us_new_tuples + List.length integration.Wrapper.fresh;
      us.Stats.us_dup_suppressed <-
        us.Stats.us_dup_suppressed + integration.Wrapper.suppressed;
      us.Stats.us_nulls_created <-
        us.Stats.us_nulls_created + integration.Wrapper.nulls_created;
      List.iter
        (fun tuple ->
          Lineage.record_import rt.Runtime.node.Node.lineage ~rel tuple
            { Lineage.li_rule = rule_id; li_hops = hops; li_at = rt.Runtime.now () })
        integration.Wrapper.fresh;
      (* the commit point: fresh tuples and their lineage hit the WAL
         before any derived sends leave this handler *)
      Durable.log_import rt.Runtime.node ~rule:rule_id ~rel ~hops
        ~at:(rt.Runtime.now ()) integration.Wrapper.fresh;
      (* the same delta the semi-naive recompute below consumes also
         feeds any standing queries hosted here, tagged with the
         lineage that produced it *)
      if integration.Wrapper.fresh <> [] then
        Sub_engine.on_store_delta rt ~rel ~since:integration.Wrapper.since
          ~delta:integration.Wrapper.fresh ~tag:(fun () ->
            Printf.sprintf "%s via %s hop %d"
              (Ids.string_of_update st.U.ust_update)
              rule_id hops);
      if integration.Wrapper.fresh <> [] && may_export rt then begin
        let recompute (inc : Config.rule_decl) =
          if U.in_state st inc.Config.rule_id = U.Link_open then begin
            let derived =
              Stats.with_eval_counters us.Stats.us_eval (fun () ->
                  Wrapper.eval_rule_delta
                    ~naive:rt.Runtime.opts.Options.naive_delta
                    rt.Runtime.node.Node.store inc ~delta_rel:rel
                    ~since:integration.Wrapper.since ~delta:integration.Wrapper.fresh)
            in
            send_on_incoming rt st us inc ~hops:(hops + 1) derived
          end
        in
        List.iter recompute
          (Deps.dependent_incoming rt.Runtime.node.Node.incoming ~outgoing:o)
      end

let note_refetch rt bytes =
  if rt.Runtime.node.Node.track_refetch then
    Stats.note_refetched rt.Runtime.node.Node.stats bytes

let on_data rt (st : U.t) ~bytes ~rule_id ~tuples ~hops =
  let us = stat rt st.U.ust_update in
  us.Stats.us_data_msgs <- us.Stats.us_data_msgs + 1;
  us.Stats.us_bytes_in <- us.Stats.us_bytes_in + bytes;
  note_refetch rt bytes;
  let traffic = Stats.rule_traffic us rule_id in
  traffic.Stats.rt_msgs <- traffic.Stats.rt_msgs + 1;
  traffic.Stats.rt_bytes <- traffic.Stats.rt_bytes + bytes;
  traffic.Stats.rt_tuples <- traffic.Stats.rt_tuples + List.length tuples;
  integrate_entry rt st us ~rule_id ~tuples ~hops

let on_batch rt (st : U.t) ~bytes ~entries =
  let us = stat rt st.U.ust_update in
  us.Stats.us_data_msgs <- us.Stats.us_data_msgs + 1;
  us.Stats.us_bytes_in <- us.Stats.us_bytes_in + bytes;
  note_refetch rt bytes;
  let total_tuples =
    List.fold_left (fun acc e -> acc + List.length e.Payload.be_tuples) 0 entries
  in
  List.iter
    (fun e ->
      let n = List.length e.Payload.be_tuples in
      let traffic = Stats.rule_traffic us e.Payload.be_rule in
      traffic.Stats.rt_msgs <- traffic.Stats.rt_msgs + 1;
      (* attribute the shared envelope proportionally to tuple counts *)
      traffic.Stats.rt_bytes <-
        (traffic.Stats.rt_bytes + if total_tuples = 0 then 0 else bytes * n / total_tuples);
      traffic.Stats.rt_tuples <- traffic.Stats.rt_tuples + n)
    entries;
  List.iter
    (fun e ->
      integrate_entry rt st us ~rule_id:e.Payload.be_rule ~tuples:e.Payload.be_tuples
        ~hops:e.Payload.be_hops)
    entries

let on_link_closed rt (st : U.t) ~rule_id =
  U.close_out st rule_id;
  maybe_close_incoming rt st;
  node_closed_check rt st

let fresh_state rt ~initiator ~scoped uid =
  let st =
    if scoped then U.create ~initiator ~scoped ~outgoing:[] ~incoming:[] uid
    else
      U.create ~initiator
        ~outgoing:(rule_ids rt.Runtime.node.Node.outgoing)
        ~incoming:(rule_ids rt.Runtime.node.Node.incoming)
        uid
  in
  Node.add_update_state rt.Runtime.node st;
  (* sent-filter carry-over from a WAL recovery: when a retransmitted
     message re-engages an update this node served before the crash,
     don't re-ship the tuples we can prove already left *)
  (match rt.Runtime.node.Node.recovered_sent with
  | [] -> ()
  | recovered ->
      let key = Ids.string_of_update uid in
      List.iter
        (fun (uid', rule, tuples) ->
          if String.equal uid' key then U.add_sent st rule tuples)
        recovered);
  st

(* Scoped updates: ask the source of an outgoing link for its data
   (once per link per update). *)
let activate_outgoing rt (st : U.t) (o : Config.rule_decl) =
  if not (U.is_active_out st o.Config.rule_id) then begin
    U.activate_out st o.Config.rule_id;
    Stats.note_queried (stat rt st.U.ust_update) (source_of o);
    send_counted rt st ~dst:(source_of o)
      (Payload.Update_request
         { update_id = st.U.ust_update; scope = Payload.For_rule o.Config.rule_id })
  end

(* Scoped updates: start serving one of our incoming links, and
   recursively request what its body needs. *)
let activate_incoming rt (st : U.t) ~requester rule_id =
  if not (U.is_active_in st rule_id) then begin
    match Node.rule_in rt.Runtime.node rule_id with
    | None ->
        (* version skew: we do not know the rule; release the
           requester so it does not wait on this link forever *)
        ignore
          (Reliable.send_noted rt ~dst:requester
             (Payload.Update_link_closed
                { update_id = st.U.ust_update; rule_id; global = false }))
    | Some inc ->
        U.activate_in st rule_id;
        let us = stat rt st.U.ust_update in
        if may_export rt then begin
          let tuples =
            Stats.with_eval_counters us.Stats.us_eval (fun () ->
                Wrapper.eval_rule_full
                  rt.Runtime.node.Node.store inc)
          in
          send_on_incoming rt st us inc ~hops:1 tuples
        end;
        List.iter (activate_outgoing rt st)
          (Deps.relevant_outgoing rt.Runtime.node.Node.outgoing ~incoming:inc);
        maybe_close_incoming rt st;
        node_closed_check rt st
  end

let initiate rt uid =
  match Node.update_state rt.Runtime.node uid with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Update.initiate: %s already ran here" (Ids.string_of_update uid))
  | None ->
      let st = fresh_state rt ~initiator:true ~scoped:false uid in
      st.U.ust_engaged <- true;
      first_contact rt st ~exclude:None;
      check_disengage rt st;
      if Options.reliable rt.Runtime.opts then
        arm_watchdog rt st ~last_activity:st.U.ust_activity

let initiate_scoped rt uid ~rels =
  match Node.update_state rt.Runtime.node uid with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Update.initiate_scoped: %s already ran here"
           (Ids.string_of_update uid))
  | None ->
      let st = fresh_state rt ~initiator:true ~scoped:true uid in
      st.U.ust_engaged <- true;
      let _ = stat rt uid in
      List.iter (activate_outgoing rt st)
        (Deps.relevant_for_query rt.Runtime.node.Node.outgoing ~rels);
      node_closed_check rt st;
      check_disengage rt st;
      if Options.reliable rt.Runtime.opts then
        arm_watchdog rt st ~last_activity:st.U.ust_activity

let count_control rt uid =
  let us = stat rt uid in
  us.Stats.us_control_msgs <- us.Stats.us_control_msgs + 1

(* Process one protocol message with Dijkstra–Scholten engagement
   bookkeeping around the payload-specific action.  [scoped] only
   matters on first contact, to create the right state flavour; for a
   global update the first contact also floods the request and serves
   every incoming link. *)
let engage_and_process rt ~src ~scoped uid process =
  match Node.update_state rt.Runtime.node uid with
  | None ->
      let st = fresh_state rt ~initiator:false ~scoped uid in
      U.touch st;
      st.U.ust_parent <- Some src;
      st.U.ust_engaged <- true;
      if not scoped then first_contact rt st ~exclude:(Some src);
      process st;
      check_disengage rt st
  | Some st ->
      U.touch st;
      if st.U.ust_engaged then begin
        process st;
        ignore
          (Reliable.send_noted rt ~dst:src (Payload.Update_ack { update_id = uid }));
        check_disengage rt st
      end
      else begin
        (* disengaged node re-contacted (a cycle delivered more data):
           re-engage with the new sender as parent *)
        st.U.ust_parent <- Some src;
        st.U.ust_engaged <- true;
        process st;
        check_disengage rt st
      end

let handle rt ~src ~bytes payload =
  match payload with
  | Payload.Update_ack { update_id } -> (
      match Node.update_state rt.Runtime.node update_id with
      | Some st ->
          count_control rt update_id;
          U.touch st;
          (* clamped: a transport give-up may already have compensated
             this acknowledgement before it finally arrived *)
          st.U.ust_deficit <- max 0 (st.U.ust_deficit - 1);
          check_disengage rt st
      | None -> ())
  | Payload.Update_terminated { update_id } -> (
      match Node.update_state rt.Runtime.node update_id with
      | Some st ->
          count_control rt update_id;
          U.touch st;
          on_terminated rt st ~src
      | None ->
          (* never contacted (e.g. connected after the fact): record a
             state so a late flood is absorbed silently *)
          ())
  | Payload.Update_request { update_id; scope = Payload.Global } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:false update_id (fun _st -> ())
  | Payload.Update_request { update_id; scope = Payload.For_rule rule_id } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:true update_id (fun st ->
          activate_incoming rt st ~requester:src rule_id)
  | Payload.Update_data { update_id; rule_id; tuples; hops; global } ->
      engage_and_process rt ~src ~scoped:(not global) update_id (fun st ->
          on_data rt st ~bytes ~rule_id ~tuples ~hops)
  | Payload.Update_batch { update_id; entries; global } ->
      engage_and_process rt ~src ~scoped:(not global) update_id (fun st ->
          on_batch rt st ~bytes ~entries)
  | Payload.Update_link_closed { update_id; rule_id; global } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:(not global) update_id (fun st ->
          on_link_closed rt st ~rule_id)
  | Payload.Query_request _ | Payload.Query_data _ | Payload.Query_done _
  | Payload.Rules_file _ | Payload.Start_update | Payload.Stats_request
  | Payload.Stats_response _ | Payload.Discovery_probe _ | Payload.Discovery_reply _
  | Payload.Seq _ | Payload.Seq_ack _ | Payload.Sub_register _
  | Payload.Sub_registered _ | Payload.Sub_unregister _ | Payload.Answer_delta _
  | Payload.Answer_batch _ ->
      (* transport frames are unwrapped by {!Dbm} before dispatch *)
      ()
