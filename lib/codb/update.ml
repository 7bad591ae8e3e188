module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Row = Codb_relalg.Row
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation
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
    us.Stats.us_finished <- Some (rt.Runtime.now ())
  end

(* May a served link's watermark commit?  Only if what it covers
   arrived: the node exports (an inconsistent node ships nothing), and
   every loss is accounted for.  Pipe transitions reach the watermarks
   through the link watcher ([System.build]) and transport give-ups
   through {!send_accounted}; a fire-and-forget transport under
   injected faults loses data silently, so nothing commits there. *)
let may_commit rt =
  Node.may_export rt.Runtime.node
  && not (Options.faults_enabled rt.Runtime.opts && not (Reliable.tracks_delivery rt))

(* A link's close leaves once everything sent on it before has
   settled ({!close_link}): its pending watermark commits then. *)
let commit_served rt (st : U.t) rule =
  match U.take_served st rule with
  | Some mark when may_commit rt ->
      Watermark.commit rt.Runtime.node.Node.watermarks ~rule mark
  | Some _ | None -> ()

(* Termination releases every table of the update ({!U.release}): no
   link is consulted again, and a finished update pins no sent filter
   in [Node.updates].  Before that, the links still open (a cycle's
   never close on their own) commit their watermarks, each only if
   everything sent to its importer settled: a give-up's compensation
   can let the initiator declare quiescence while a late message still
   has a node producing data. *)
let commit_open_links rt (st : U.t) =
  match U.take_all_served st with
  | [] -> ()
  | marks ->
      if may_commit rt then
        List.iter
          (fun (rule, mark) ->
            let dst = Watermark.importer mark in
            if U.dst_unacked st ~dst = 0 then
              Watermark.commit rt.Runtime.node.Node.watermarks ~rule mark)
          marks

(* Tell every acquaintance but [except] that the update terminated,
   except those that reported their subtree done ([done_peers], read
   before the state was released): they terminated themselves, and
   reach the rest of the network only through this node. *)
let flood_terminated rt (st : U.t) ~except ~done_peers =
  let forward peer =
    let skip =
      (match except with Some p -> Peer_id.equal p peer | None -> false)
      || List.exists (Peer_id.equal peer) done_peers
    in
    if not skip then
      ignore
        (Reliable.send_noted rt ~dst:peer
           (Payload.Update_terminated { update_id = st.U.ust_update }))
  in
  List.iter forward rt.Runtime.node.Node.acquaintances

(* Is [dst] this node's Dijkstra–Scholten engagement parent?  A
   message to it owes no acknowledgement: the parent cannot disengage
   before this node's own disengagement ack arrives, and that ack
   leaves with or after the message on the same pipe.  With FIFO pipes
   it arrives after it too; under the reliable transport the ack waits
   until every message to the parent has settled ({!check_disengage}),
   which a receiver confirms only after processing it.  So the parent
   is engaged whenever such a message reaches it, and anything it sends
   in reaction is counted in its own deficit before it can disengage. *)
let to_parent (st : U.t) dst =
  match st.U.ust_parent with Some p -> Peer_id.equal p dst | None -> false

(* Is [inc] served lazily?  In a global update, a link whose importer
   is this node's engagement parent is evaluated neither at first
   contact nor on each arrival: the parent cannot finish before this
   node's acknowledgement arrives, so each shipment before it would
   cost a message and an evaluation and buy nothing.
   The append-only store is the buffer.  The link is served once, from
   its mark up to the store, when it closes or the node disengages, and
   those rows leave in the message that carries the close or the ack
   ({!owed_to_parent}).  The fix-point does not depend on the schedule
   (Franconi et al.), so deferring the parent's delta is sound. *)
let is_lazy (st : U.t) (inc : Config.rule_decl) =
  (not st.U.ust_scoped) && to_parent st (importer_of inc)

let close_payload (st : U.t) ~no_ack rule_id =
  Payload.Update_link_closed
    { update_id = st.U.ust_update; rule_id; global = not st.U.ust_scoped; no_ack }

let cardinal store rel =
  match Database.relation_opt store rel with
  | Some relation -> Relation.cardinal relation
  | None -> 0

(* The incoming link's sent filter: the head projector drops the rows
   already in it and notes the rest, so what it returns is what the
   paper sends ("delete from Ri the tuples already sent").  Without
   the cache (the E8 ablation) each evaluation only de-duplicates
   itself. *)
let sent_for rt (st : U.t) (inc : Config.rule_decl) =
  if rt.Runtime.opts.Options.use_sent_cache then Some (U.sent_filter st inc.Config.rule_id)
  else None

(* The incoming link's rule, prepared to project into the link's sent
   filter and kept with it until the update terminates.  Without the
   cache each serve or recompute prepares its own, into a fresh
   table. *)
let prepared_for rt (st : U.t) (inc : Config.rule_decl) =
  let prepare sent =
    Wrapper.prepare ~sent ~naive:rt.Runtime.opts.Options.naive_delta rt.Runtime.node.Node.store
      inc.Config.rule_query
  in
  if rt.Runtime.opts.Options.use_sent_cache then
    U.link_rule st inc.Config.rule_id ~make:prepare
  else prepare (Sent_filter.create ())

(* Heads grouped by hop count, each group sorted. *)
let add_group groups hops rows =
  if rows = [] then groups
  else
    match List.assoc_opt hops groups with
    | Some earlier -> (hops, List.merge Row.compare earlier rows) :: List.remove_assoc hops groups
    | None -> (hops, rows) :: groups

let by_hops groups = List.sort (fun (a, _) (b, _) -> Int.compare a b) groups

(* Serve one incoming link from local data: what the rows past its mark
   derive, one semi-naive pass per body relation that grew, all into
   the link's sent filter, so a head derivable from new rows of two
   relations goes out once.  The mark is the link's pending one if this
   update served it before, else its committed watermark; a link with
   neither is evaluated in full, as the paper's update does.  The
   link's pending mark then covers the cardinalities read here.

   The heads come back grouped by the most hops among the rows this
   update imported into the window that derived them (0: none).  An
   eager serve ([split = false]) reads each grown relation as one
   window.  A lazy one cuts the windows where those hops change
   ({!Lineage.hop_windows}), so each row ships with one hop more than the
   rows it covers, as it would have on the arrival that brought them;
   a link with no mark then runs its windows over its first body
   relation, through which every derivation goes. *)
let serve rt (st : U.t) us (inc : Config.rule_decl) ~split =
  let node = rt.Runtime.node in
  let store = node.Node.store in
  let rule = inc.Config.rule_id in
  let query = inc.Config.rule_query in
  let rels = Query.body_relations query in
  let rows = List.map (cardinal store) rels in
  let pending = U.served st rule in
  let windows rel ~from ~upto =
    if split then Lineage.hop_windows node.Node.lineage ~rel ~update:st.U.ust_update ~from ~upto
    else if from < upto then [ (from, upto, 0) ]
    else []
  in
  let marks =
    match pending with
    | Some p -> Some (Watermark.covered p)
    | None -> Watermark.find node.Node.watermarks rule
  in
  (* [(rel, windows)] per body relation to read; [None]: one
     evaluation in full *)
  let passes =
    match (marks, rels, rows) with
    | Some marks, _, _ ->
        Some (List.mapi (fun i rel -> (rel, windows rel ~from:marks.(i) ~upto:(List.nth rows i))) rels)
    | None, rel :: _, count :: _ when split -> (
        match windows rel ~from:0 ~upto:count with
        | [] | [ (_, _, 0) ] -> None
        | ws -> Some [ (rel, ws) ])
    | None, _, _ -> None
  in
  let groups =
    Stats.with_eval_counters us.Stats.us_eval (fun () ->
        match passes with
        | None -> [ (0, Wrapper.eval_query_full ?sent:(sent_for rt st inc) store query) ]
        | Some passes ->
            (* made at the first window: a serve whose marks cover the
               store runs nothing *)
            let prepared = lazy (prepared_for rt st inc) in
            let pass groups (rel, ws) =
              List.fold_left
                (fun groups (since, upto, hops) ->
                  add_group groups hops
                    (Eval.run ~query ~delta_rel:rel ~since ~upto (Lazy.force prepared)))
                groups ws
            in
            List.fold_left pass [] passes)
  in
  (match pending with
  | Some p -> Watermark.cover p ~rows
  | None ->
      U.note_served st rule
        (Watermark.serve node.Node.watermarks ~importer:(importer_of inc) ~rels ~rows));
  by_hops groups

(* Is this node's subtree done, as its acknowledgement to [parent] may
   report?  Only in a global update (a scoped one may activate
   more links later), once every link of the update is closed and every
   other acquaintance reported its own subtree done.  That subtree then
   touches the rest of the network only through [parent], nothing of
   the update flows in it any more, and no peer outside it needs a
   terminated routed through it. *)
let subtree_done rt (st : U.t) ~parent =
  let below peer =
    Peer_id.equal peer parent || List.exists (Peer_id.equal peer) (U.done_peers st)
  in
  (not st.U.ust_scoped) && U.all_links_closed st
  && List.for_all below rt.Runtime.node.Node.acquaintances

(* What this node owes its parent now, as the entries of one
   [Update_batch]: a lazy serve of each link in [closes] and, at
   disengagement ([ack]), of every lazy link still open.  The closed
   links' marks commit here, after their last serve; an inconsistent
   node serves nothing. *)
let owed_to_parent rt (st : U.t) us ~ack closes =
  let due (inc : Config.rule_decl) =
    let rule = inc.Config.rule_id in
    is_lazy st inc
    && (List.mem rule closes || (ack && U.in_state st rule = U.Link_open))
  in
  let entries =
    if not (Node.may_export rt.Runtime.node) then []
    else
      List.concat_map
        (fun (inc : Config.rule_decl) ->
          if not (due inc) then []
          else
            List.filter_map
              (fun (hops, rows) ->
                if rows = [] then None
                else
                  Some { Payload.be_rule = inc.Config.rule_id; be_hops = hops + 1; be_rows = rows })
              (serve rt st us inc ~split:true))
        rt.Runtime.node.Node.incoming
  in
  List.iter (commit_served rt st) closes;
  entries

(* Dijkstra–Scholten: a node disengages (acknowledging the message
   that engaged it) once everything it counted has been acknowledged
   AND no close waits behind in-flight data (a deferred close) AND
   everything it sent to its parent has settled.  A deferred close
   must leave, counted, while this node is still engaged: it keeps
   the parent's deficit positive, hence the initiator unable to
   declare quiescence while it is owed.  The settlement check is the
   reliable transport's stand-in for FIFO pipes (see {!to_parent}).
   Every handler ends here, so closes held for the parent go out now
   either way, in one message with the rows of their links. *)
let rec check_disengage rt (st : U.t) =
  let ready =
    st.U.ust_engaged && st.U.ust_deficit = 0 && not (U.has_deferred_closes st)
  in
  if ready && st.U.ust_initiator then begin
    st.U.ust_engaged <- false;
    terminate rt st ~except:None
  end
  else
    match st.U.ust_parent with
    | Some parent ->
        let closes = U.take_held_closes st in
        if ready && U.dst_unacked st ~dst:parent = 0 then disengage rt st ~parent closes
        else if closes <> [] then
          send_to_parent rt st ~parent ~closes ~carries_ack:false ~subtree_done:false
            (owed_to_parent rt st (stat rt st.U.ust_update) ~ack:false closes)
    | None ->
        if ready then
          Log.warn (fun m ->
              m "%a: engaged without a parent in %a" Peer_id.pp rt.Runtime.node.Node.node_id
                Ids.pp_update st.U.ust_update)

(* Disengage, acknowledging the message that engaged us, in one
   message with the rows and closes still owed to the parent; a bare
   [Update_ack] when nothing else is owed.  A node whose subtree is done
   says so there and terminates at once, flooding nothing: every
   acquaintance but the parent is in its done subtree. *)
and disengage rt (st : U.t) ~parent closes =
  let entries = owed_to_parent rt st (stat rt st.U.ust_update) ~ack:true closes in
  st.U.ust_engaged <- false;
  st.U.ust_parent <- None;
  let subtree_done = subtree_done rt st ~parent in
  if entries = [] && closes = [] && not subtree_done then
    ignore (Reliable.send_noted rt ~dst:parent (Payload.Update_ack { update_id = st.U.ust_update }))
  else send_to_parent rt st ~parent ~closes ~carries_ack:true ~subtree_done entries;
  if subtree_done then terminate rt st ~except:(Some parent)

(* Tracked like data: a later close to the parent waits behind these
   rows, and losing them voids the watermarks towards it. *)
and send_to_parent rt (st : U.t) ~parent ~closes ~carries_ack ~subtree_done entries =
  send_accounted rt st ~dst:parent ~data:(entries <> []) ~no_ack:true
    (Payload.Update_batch
       { update_id = st.U.ust_update; entries; closes; global = not st.U.ust_scoped;
         no_ack = true; carries_ack; subtree_done });
  if entries <> [] then Stats.note_sent_to (stat rt st.U.ust_update) parent

(* The update is over here: commit what the open links served (unless
   [commit] is off), release the tables and tell the acquaintances that
   still need it.  The done subtrees the flood skips are read before
   the release. *)
and terminate ?(commit = true) rt (st : U.t) ~except =
  if not st.U.ust_terminated then begin
    let done_peers = U.done_peers st in
    st.U.ust_terminated <- true;
    if commit then commit_open_links rt st;
    U.release st;
    finalize rt st;
    flood_terminated rt st ~except ~done_peers
  end

(* Send a message that takes part in termination accounting.  Unless
   it goes to the parent ([no_ack]), the receiver owes us an
   acknowledgement and the deficit counts it.  Under the reliable
   transport the deficit must also be compensated when the transport
   gives up after its last retry: the receiver will never send the
   protocol acknowledgement either, and without the compensation the
   sender (hence the whole engagement tree) would wait forever.

   Data messages, and every message to the parent, are also counted in
   flight per destination there ([tracked]), so a link close held back
   by {!close_link} follows its data out as soon as the last message
   settles, and the disengagement acknowledgement follows everything
   sent to the parent.  A settlement with [ok = false] still releases
   the closes: the receiver missed those tuples for good, and holding
   the close any longer would only stall termination on top of the
   data loss; a data loss also voids every watermark towards [dst]. *)
and send_accounted rt (st : U.t) ~dst ~data ~no_ack payload =
  let sent =
    if not (Reliable.tracks_delivery rt) then Reliable.send_noted rt ~dst payload
    else begin
      let tracked = data || no_ack in
      let on_settled ~ok =
        if data && not ok then Watermark.clear_peer rt.Runtime.node.Node.watermarks dst;
        if is_current rt st then begin
          if tracked then U.decr_unacked st ~dst;
          if not st.U.ust_terminated then begin
            if not (ok || no_ack) then st.U.ust_deficit <- max 0 (st.U.ust_deficit - 1);
            if tracked && U.dst_unacked st ~dst = 0 then send_deferred_closes rt st ~dst;
            check_disengage rt st
          end
        end
      in
      let sent = Reliable.send_noted ~on_settled rt ~dst payload in
      if sent && tracked then U.incr_unacked st ~dst;
      sent
    end
  in
  if sent && not no_ack then st.U.ust_deficit <- st.U.ust_deficit + 1

and send_deferred_closes rt (st : U.t) ~dst =
  List.iter (send_close rt st ~dst) (U.take_deferred_closes st ~dst)

(* A close to the parent is held for {!check_disengage}, which ends
   every handler and commits its mark after the link's last serve; any
   other close commits now and is counted. *)
and send_close rt (st : U.t) ~dst rule_id =
  if to_parent st dst then U.hold_close st ~rule:rule_id
  else begin
    commit_served rt st rule_id;
    send_accounted rt st ~dst ~data:false ~no_ack:false (close_payload st ~no_ack:false rule_id)
  end

(* A request is always counted: it never goes to the parent of a
   global update, and carries no flag byte for a scoped one. *)
let send_request rt (st : U.t) ~dst payload =
  send_accounted rt st ~dst ~data:false ~no_ack:false payload

(* Close a link towards [dst].  FIFO pipes used to guarantee that the
   close arrived after every data message sent before it; the reliable
   transport's retransmissions (and injected jitter) can reorder the
   two, making the importer integrate late data without forwarding it.
   So under the reliable transport the close waits until all data to
   [dst] has settled. *)
let close_link rt (st : U.t) ~dst ~rule_id =
  if Reliable.tracks_delivery rt && U.dst_unacked st ~dst > 0 then
    U.defer_close st ~dst ~rule:rule_id
  else send_close rt st ~dst rule_id

(* The initiator's last resort: bounded retries bound the transport,
   but a crashed-and-gone acquaintance (or an ack chain cut by a
   permanent partition) can still leave the engagement tree waiting.
   When nothing has moved for a whole failure-deadline window the
   initiator declares the update over — explicitly marked forced, so
   reports show the fix-point may be incomplete. *)
let force_terminate rt (st : U.t) =
  if not st.U.ust_terminated then begin
    Log.warn (fun m ->
        m "%a: forcing termination of stalled %a (deficit %d)" Peer_id.pp
          rt.Runtime.node.Node.node_id Ids.pp_update st.U.ust_update st.U.ust_deficit);
    let us = stat rt st.U.ust_update in
    us.Stats.us_forced <- true;
    Stats.note_forced_termination rt.Runtime.node.Node.stats;
    st.U.ust_engaged <- false;
    (* acknowledgements are owed, so nothing commits *)
    terminate ~commit:false rt st ~except:None
  end

let rec arm_watchdog rt (st : U.t) ~last_activity =
  let window = Options.failure_deadline rt.Runtime.opts in
  rt.Runtime.schedule ~delay:window (fun () ->
      if is_current rt st && (not st.U.ust_terminated) && not st.U.ust_finished then
        if st.U.ust_activity = last_activity then force_terminate rt st
        else arm_watchdog rt st ~last_activity:st.U.ust_activity)

(* Ship the heads {!sent_for}'s filter let through, as [(hops, rows)]
   groups, in one message (an [Update_batch] if the hops differ). *)
let send_on_incoming rt (st : U.t) us (inc : Config.rule_decl) groups =
  let rule = inc.Config.rule_id in
  let dst = importer_of inc in
  match List.filter (fun (_, rows) -> rows <> []) groups with
  | [] -> ()
  | groups ->
      let no_ack = to_parent st dst and global = not st.U.ust_scoped in
      let update_id = st.U.ust_update in
      send_accounted rt st ~dst ~data:true ~no_ack
        (match groups with
        | [ (hops, rows) ] -> Payload.Update_data { update_id; rule_id = rule; rows; hops; global; no_ack }
        | groups ->
            Payload.Update_batch
              { update_id; closes = []; global; no_ack; carries_ack = false; subtree_done = false;
                entries =
                  List.map
                    (fun (hops, rows) -> { Payload.be_rule = rule; be_hops = hops; be_rows = rows })
                    groups });
      Stats.note_sent_to us dst

(* Close every still-open incoming link whose relevant outgoing links
   are all closed, notifying the importers (paper: "an acquaintance
   closes an incoming link if all its outgoing links which are
   relevant for this incoming link are closed").  {!close_link} keeps
   [Update_link_closed] from overtaking its own data and making the
   importer close the link early. *)
let maybe_close_incoming rt (st : U.t) =
  let close_if_ready (inc : Config.rule_decl) =
    if U.in_state st inc.Config.rule_id = U.Link_open then begin
      let relevant = Deps.relevant_outgoing rt.Runtime.node.Node.outgoing ~incoming:inc in
      let closed (o : Config.rule_decl) = U.out_state st o.Config.rule_id = U.Link_closed in
      if List.for_all closed relevant then begin
        U.close_in st inc.Config.rule_id;
        close_link rt st ~dst:(importer_of inc) ~rule_id:inc.Config.rule_id
      end
    end
  in
  List.iter close_if_ready rt.Runtime.node.Node.incoming

let node_closed_check rt (st : U.t) = if U.all_out_closed st then finalize rt st

(* Answer one incoming link from local data now, as the paper's update
   does, and ship the heads with one hop. *)
let serve_eagerly rt (st : U.t) us (inc : Config.rule_decl) =
  send_on_incoming rt st us inc
    (List.map (fun (_, heads) -> (1, heads)) (serve rt st us inc ~split:false))

(* First contact with an update: flood the request, answer every
   incoming link but the lazy ones from local data, close independent
   incoming links. *)
let first_contact rt (st : U.t) ~exclude =
  let uid = st.U.ust_update in
  let us = stat rt uid in
  let flood peer =
    let skip = match exclude with Some p -> Peer_id.equal p peer | None -> false in
    if not skip then
      send_request rt st ~dst:peer
        (Payload.Update_request { update_id = uid; scope = Payload.Global })
  in
  List.iter flood rt.Runtime.node.Node.acquaintances;
  List.iter
    (fun (o : Config.rule_decl) -> Stats.note_queried us (source_of o))
    rt.Runtime.node.Node.outgoing;
  if Node.may_export rt.Runtime.node then
    List.iter
      (fun inc -> if not (is_lazy st inc) then serve_eagerly rt st us inc)
      rt.Runtime.node.Node.incoming;
  maybe_close_incoming rt st;
  node_closed_check rt st

(* Integrate one rule's worth of received rows: store, lineage, WAL
   and standing queries (the per-message statistics are the caller's
   job: one [Update_data] is one entry, one [Update_batch] is several).
   Returns the window of fresh rows it appended, as
   [(rel, since, upto, hops)], for {!recompute}. *)
let integrate_entry rt (st : U.t) us ~rule_id ~rows ~hops =
  us.Stats.us_max_hops <- max us.Stats.us_max_hops hops;
  match Node.rule_out rt.Runtime.node rule_id with
  | None ->
      (* the rule was dropped by a runtime topology change *)
      Log.debug (fun m -> m "data for unknown outgoing rule %s ignored" rule_id);
      None
  | Some o ->
      let rel = head_rel o in
      let integration =
        Wrapper.integrate ~opts:rt.Runtime.opts ~rule_id rt.Runtime.node.Node.store ~rel
          rows
      in
      us.Stats.us_new_tuples <- us.Stats.us_new_tuples + List.length integration.Wrapper.fresh;
      us.Stats.us_dup_suppressed <-
        us.Stats.us_dup_suppressed + integration.Wrapper.suppressed;
      us.Stats.us_nulls_created <-
        us.Stats.us_nulls_created + integration.Wrapper.nulls_created;
      let since = integration.Wrapper.since in
      let upto = since + List.length integration.Wrapper.fresh in
      (* lineage before the WAL: an append may take a snapshot at once,
         and that must see the fresh rows' window, or it writes them as
         base rows and truncates their [Import] record *)
      Lineage.record rt.Runtime.node.Node.lineage ~rel ~update:st.U.ust_update ~since ~upto
        { Lineage.li_rule = rule_id; li_hops = hops; li_at = rt.Runtime.now () };
      (* the commit point: fresh tuples and their lineage hit the WAL
         before any derived sends leave this handler *)
      Durable.log_import rt.Runtime.node ~rule:rule_id ~rel ~hops
        ~at:(rt.Runtime.now ()) integration.Wrapper.fresh;
      if integration.Wrapper.fresh = [] then None
      else begin
        (* the same delta the semi-naive recompute consumes also feeds
           any standing queries hosted here, tagged with the lineage
           that produced it *)
        Sub_engine.on_store_delta rt ~rel ~since ~upto
          ~tag:(fun () ->
            Printf.sprintf "%s via %s hop %d"
              (Ids.string_of_update st.U.ust_update)
              rule_id hops);
        Some (rel, since, upto, hops)
      end

(* Recompute every open incoming link but the lazy ones, which the
   store buffers, semi-naively over the windows one message's entries
   appended: one shipment per link, each row with one hop more than the
   window that derived it. *)
let recompute rt (st : U.t) us windows =
  if windows <> [] && Node.may_export rt.Runtime.node then
    List.iter
      (fun (inc : Config.rule_decl) ->
        let rule = inc.Config.rule_id in
        let reads (rel, _, _, _) =
          List.exists (fun a -> String.equal a.Atom.rel rel) inc.Config.rule_query.Query.body
        in
        match List.filter reads windows with
        | [] -> ()
        | mine when U.in_state st rule = U.Link_open && not (is_lazy st inc) ->
            let prepared = prepared_for rt st inc in
            let derive groups (rel, since, upto, hops) =
              let fresh =
                Stats.with_eval_counters us.Stats.us_eval (fun () ->
                    Eval.run ~query:inc.Config.rule_query ~delta_rel:rel ~since ~upto
                      prepared)
              in
              Option.iter (fun mark -> Watermark.advance mark ~rel ~since ~upto) (U.served st rule);
              add_group groups (hops + 1) fresh
            in
            send_on_incoming rt st us inc (by_hops (List.fold_left derive [] mine))
        | _ -> ())
      rt.Runtime.node.Node.incoming

let note_refetch rt bytes =
  if rt.Runtime.node.Node.track_refetch then
    Stats.note_refetched rt.Runtime.node.Node.stats bytes

let on_data rt (st : U.t) ~bytes ~rule_id ~rows ~hops =
  let us = stat rt st.U.ust_update in
  us.Stats.us_data_msgs <- us.Stats.us_data_msgs + 1;
  us.Stats.us_bytes_in <- us.Stats.us_bytes_in + bytes;
  note_refetch rt bytes;
  let traffic = Stats.rule_traffic us rule_id in
  traffic.Stats.rt_msgs <- traffic.Stats.rt_msgs + 1;
  traffic.Stats.rt_bytes <- traffic.Stats.rt_bytes + bytes;
  traffic.Stats.rt_tuples <- traffic.Stats.rt_tuples + List.length rows;
  recompute rt st us (Option.to_list (integrate_entry rt st us ~rule_id ~rows ~hops))

let on_batch rt (st : U.t) ~bytes ~entries =
  let us = stat rt st.U.ust_update in
  us.Stats.us_data_msgs <- us.Stats.us_data_msgs + 1;
  us.Stats.us_bytes_in <- us.Stats.us_bytes_in + bytes;
  note_refetch rt bytes;
  let total_tuples =
    List.fold_left (fun acc e -> acc + List.length e.Payload.be_rows) 0 entries
  in
  (* a lazy serve ships one entry per hop count: one message per rule *)
  List.iter
    (fun rule ->
      let traffic = Stats.rule_traffic us rule in
      traffic.Stats.rt_msgs <- traffic.Stats.rt_msgs + 1)
    (List.sort_uniq String.compare (List.map (fun e -> e.Payload.be_rule) entries));
  List.iter
    (fun e ->
      let n = List.length e.Payload.be_rows in
      let traffic = Stats.rule_traffic us e.Payload.be_rule in
      (* attribute the shared envelope proportionally to tuple counts *)
      traffic.Stats.rt_bytes <-
        (traffic.Stats.rt_bytes + if total_tuples = 0 then 0 else bytes * n / total_tuples);
      traffic.Stats.rt_tuples <- traffic.Stats.rt_tuples + n)
    entries;
  recompute rt st us
    (List.filter_map
       (fun e ->
         integrate_entry rt st us ~rule_id:e.Payload.be_rule ~rows:e.Payload.be_rows
           ~hops:e.Payload.be_hops)
       entries)

let on_link_closed rt (st : U.t) ~rule_id =
  if not st.U.ust_terminated then begin
    U.close_out st rule_id;
    maybe_close_incoming rt st;
    node_closed_check rt st
  end

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
  st

(* Scoped updates: ask the source of an outgoing link for its data
   (once per link per update). *)
let activate_outgoing rt (st : U.t) (o : Config.rule_decl) =
  if not (st.U.ust_terminated || U.is_active_out st o.Config.rule_id) then begin
    U.activate_out st o.Config.rule_id;
    Stats.note_queried (stat rt st.U.ust_update) (source_of o);
    send_request rt st ~dst:(source_of o)
      (Payload.Update_request
         { update_id = st.U.ust_update; scope = Payload.For_rule o.Config.rule_id })
  end

(* Scoped updates: start serving one of our incoming links, and
   recursively request what its body needs. *)
let activate_incoming rt (st : U.t) ~requester rule_id =
  if not (st.U.ust_terminated || U.is_active_in st rule_id) then begin
    match Node.rule_in rt.Runtime.node rule_id with
    | None ->
        (* version skew: we do not know the rule; release the
           requester so it does not wait on this link forever (an
           uncounted close, so it owes no ack) *)
        ignore (Reliable.send_noted rt ~dst:requester (close_payload st ~no_ack:true rule_id))
    | Some inc ->
        U.activate_in st rule_id;
        if Node.may_export rt.Runtime.node then
          serve_eagerly rt st (stat rt st.U.ust_update) inc;
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
   every incoming link.

   An engaged node acknowledges the message at once unless the sender
   did not count it ([owed = false]: it went to the sender's parent,
   which is us).  A node that is not engaged (disengaged, or holding no
   state for the update, as after a crash and restart) treats every
   message alike, whatever its flags: the sender becomes its parent
   and the ack is owed at disengagement.  With FIFO pipes, or the
   reliable transport's settle-before-final rule, a message owed no ack
   only ever reaches an engaged node; it reaches a node that is not
   engaged only after a crash wiped the node's engagement (whose own
   parent then never hears from it, so the update ends forced) or
   after the transport gave the message up and it still arrived.  So an
   acknowledgement that reports the sender's subtree done
   ([reports_done]) is noted only by an engaged node: anywhere else it
   is in doubt, and the flood still runs on that edge. *)
let engage_and_process rt ~src ~scoped ?(owed = true) ?(acks = false) ?(reports_done = false)
    uid process =
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
        if owed then
          ignore
            (Reliable.send_noted rt ~dst:src (Payload.Update_ack { update_id = uid }));
        if reports_done then U.note_done st src
      end
      else begin
        (* disengaged node re-contacted (a cycle delivered more data):
           re-engage with the new sender as parent *)
        st.U.ust_parent <- Some src;
        st.U.ust_engaged <- true;
        process st
      end;
      (* a message that carries the sender's ack is an [Update_ack] too *)
      if acks then st.U.ust_deficit <- max 0 (st.U.ust_deficit - 1);
      check_disengage rt st

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
          terminate rt st ~except:(Some src)
      | None ->
          (* never contacted (e.g. connected after the fact): the late
             flood is absorbed silently, and nothing is recorded *)
          ())
  | Payload.Update_request { update_id; scope = Payload.Global } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:false update_id (fun _st -> ())
  | Payload.Update_request { update_id; scope = Payload.For_rule rule_id } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:true update_id (fun st ->
          activate_incoming rt st ~requester:src rule_id)
  | Payload.Update_data { update_id; rule_id; rows; hops; global; no_ack } ->
      engage_and_process rt ~src ~scoped:(not global) ~owed:(not no_ack) update_id
        (fun st -> on_data rt st ~bytes ~rule_id ~rows ~hops)
  | Payload.Update_batch
      { update_id; entries; closes; global; no_ack; carries_ack; subtree_done } ->
      (* rows make it a data message, a close or an ack a control one:
         a node's message to its parent is often both *)
      if closes <> [] || carries_ack then count_control rt update_id;
      engage_and_process rt ~src ~scoped:(not global) ~owed:(not no_ack)
        ~acks:carries_ack ~reports_done:subtree_done update_id (fun st ->
          if entries <> [] then on_batch rt st ~bytes ~entries;
          List.iter (fun rule_id -> on_link_closed rt st ~rule_id) closes)
  | Payload.Update_link_closed { update_id; rule_id; global; no_ack } ->
      count_control rt update_id;
      engage_and_process rt ~src ~scoped:(not global) ~owed:(not no_ack) update_id
        (fun st -> on_link_closed rt st ~rule_id)
  | Payload.Query_request _ | Payload.Query_data _ | Payload.Query_done _
  | Payload.Rules_file _ | Payload.Start_update | Payload.Stats_request
  | Payload.Stats_response _ | Payload.Discovery_probe _ | Payload.Discovery_reply _
  | Payload.Seq _ | Payload.Seq_ack _ | Payload.Sub_register _
  | Payload.Sub_registered _ | Payload.Sub_unregister _ | Payload.Answer_delta _
  | Payload.Answer_batch _ ->
      (* transport frames are unwrapped by {!Dbm} before dispatch *)
      ()
