module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Eval = Codb_cq.Eval
module Specialize = Codb_cq.Specialize
module Row = Codb_relalg.Row
module Database = Codb_relalg.Database
module Q = Query_state

let src_log = Logs.Src.create "codb.query" ~doc:"coDB query answering"

module Log = (val Logs.src_log src_log : Logs.LOG)

let head_rel (r : Config.rule_decl) = r.Config.rule_query.Query.head.Atom.rel

let me (rt : Runtime.t) = rt.node.Node.node_id

let qstat (rt : Runtime.t) qid = Stats.query_stat rt.node.Node.stats ~now:(rt.now ()) qid

(* Attribute the index probes / relation scans performed by [f] to the
   query's statistics. *)
let with_counters rt qid f = Stats.with_eval_counters (qstat rt qid).Stats.qs_eval f

(* Is [st] still the instance the node knows under its reference?  A
   crash clears the table; timers and transport callbacks armed before
   must not touch the orphaned record. *)
let is_current (rt : Runtime.t) (st : Q.t) =
  match Hashtbl.find_opt rt.Runtime.node.Node.query_instances st.Q.qst_ref with
  | Some current -> current == st
  | None -> false

(* the null-free answers are the certain ones *)
let certain_count rows =
  List.fold_left (fun n row -> if Row.has_null row then n else n + 1) 0 rows

let complete_root rt (st : Q.t) query set_result =
  let answers =
    with_counters rt st.Q.qst_query (fun () ->
        Wrapper.user_answers st.Q.qst_overlay query)
  in
  set_result answers;
  Q.close st;
  let qs = qstat rt st.Q.qst_query in
  qs.Stats.qs_finished <- Some (rt.Runtime.now ());
  qs.Stats.qs_answers <- List.length answers;
  qs.Stats.qs_certain <- certain_count answers;
  qs.Stats.qs_complete <- st.Q.qst_complete;
  if not st.Q.qst_complete then Stats.note_partial_answer rt.Runtime.node.Node.stats

(* The stream ends in the rows the responder still holds: they ride
   its [Query_done]. *)
let finish_responder rt (st : Q.t) ~requester ~in_rule =
  let rows = st.Q.qst_held in
  Q.close st;
  (* nothing reads a finished responder again: late data, a stray
     completion or a transport callback finds no instance *)
  Hashtbl.remove rt.Runtime.node.Node.query_instances st.Q.qst_ref;
  ignore
    (Reliable.send_noted rt ~dst:requester
       (Payload.Query_done
          { query_id = st.Q.qst_query; request_ref = st.Q.qst_ref; rule_id = in_rule;
            complete = st.Q.qst_complete; rows }))

let check_completion rt (st : Q.t) =
  if (not st.Q.qst_closed) && Q.all_done st && st.Q.qst_unacked = 0 then
    match st.Q.qst_kind with
    | Q.Root ({ query; _ } as root) ->
        complete_root rt st query (fun answers -> root.result <- Some answers)
    | Q.Responder { requester; in_rule; _ } -> finish_responder rt st ~requester ~in_rule

(* A sub-request is lost: the transport gave up on delivering it, or
   its failure deadline passed without a sign of life.  The instance
   stops waiting and whatever completes from here is explicitly
   partial. *)
let expire_pending rt (st : Q.t) ~sub_ref =
  if is_current rt st && (not st.Q.qst_closed) && Q.mark_failed st ~ref_:sub_ref then begin
    Log.warn (fun m ->
        m "%a: sub-request %s of %a declared failed" Peer_id.pp (me rt) sub_ref
          Ids.pp_query st.Q.qst_query);
    Hashtbl.remove rt.Runtime.node.Node.sub_refs sub_ref;
    st.Q.qst_complete <- false;
    Stats.note_query_timeout rt.Runtime.node.Node.stats;
    check_completion rt st
  end

(* Per-sub-request stall watchdog.  An absolute deadline would be wrong:
   a deep sub-tree legitimately needs many windows.  Instead the timer
   re-arms as long as the sub-request keeps producing data, and only a
   completely silent window expires it. *)
let rec arm_sub_deadline rt (st : Q.t) ~sub_ref =
  rt.Runtime.schedule ~delay:(Options.failure_deadline rt.Runtime.opts) (fun () ->
      if is_current rt st && not st.Q.qst_closed then
        match Q.find_pending st sub_ref with
        | None -> ()
        | Some p ->
            if not (p.Q.p_done || p.Q.p_failed) then
              if p.Q.p_touched then begin
                p.Q.p_touched <- false;
                arm_sub_deadline rt st ~sub_ref
              end
              else expire_pending rt st ~sub_ref)

(* Send sub-requests for every outgoing link that can contribute to
   [rels], skipping nodes already on the label.  Registers the
   pending entries and the sub-reference routing; whenever messages can
   be lost (reliable transport, or faults injected under fire-and-forget)
   each sub-request also gets a failure deadline, so a lost completion
   signal marks the branch failed instead of hanging the query forever. *)
let fan_out rt (st : Q.t) ~query ~rels ~label =
  let relevant = Deps.relevant_for_query rt.Runtime.node.Node.outgoing ~rels in
  (* Constraint pushdown: project the requesting query's restrictions
     on the rule's head relation into the sub-request, so the acquaintance
     can filter (and further push) before tuples hit the wire. *)
  let constraints_for (o : Config.rule_decl) =
    match query with
    | None -> Specialize.any
    | Some q ->
        Specialize.of_query q ~rel:(head_rel o)
  in
  let consider (o : Config.rule_decl) =
    let target = Peer_id.of_string o.Config.source in
    if not (List.exists (Peer_id.equal target) label) then begin
      let sub_ref = Node.fresh_ref rt.Runtime.node in
      let constraints = constraints_for o in
      let on_settled ~ok = if not ok then expire_pending rt st ~sub_ref in
      let sent =
        Reliable.send_noted ~on_settled rt ~dst:target
          (Payload.Query_request
             { query_id = st.Q.qst_query; request_ref = sub_ref;
               rule_id = o.Config.rule_id; label; constraints })
      in
      if sent then begin
        if not (Specialize.is_any constraints) then begin
          let qs = qstat rt st.Q.qst_query in
          qs.Stats.qs_pushed <- qs.Stats.qs_pushed + 1
        end;
        Q.add_pending st ~ref_:sub_ref ~rule:o.Config.rule_id;
        Hashtbl.replace rt.Runtime.node.Node.sub_refs sub_ref st.Q.qst_ref;
        (* also under fire-and-forget transport when faults are being
           injected: a silently dropped request or completion signal
           must expire into a partial answer, not hang the query *)
        if Options.reliable rt.Runtime.opts || Options.faults_enabled rt.Runtime.opts
        then arm_sub_deadline rt st ~sub_ref
      end
    end
  in
  List.iter consider relevant

(* Responder-side data send.  Under the reliable transport the message
   is tracked until its fate is known: completion (hence the
   completeness claim in [Query_done]) waits for every outstanding
   data ack, and a transport give-up taints the instance. *)
let send_data rt (st : Q.t) ~dst payload =
  if Reliable.tracks_delivery rt then begin
    st.Q.qst_unacked <- st.Q.qst_unacked + 1;
    let on_settled ~ok =
      if is_current rt st then begin
        if not ok then st.Q.qst_complete <- false;
        st.Q.qst_unacked <- max 0 (st.Q.qst_unacked - 1);
        check_completion rt st
      end
    in
    ignore (Reliable.send ~on_settled rt ~dst payload)
  end
  else ignore (Reliable.send_noted rt ~dst payload)

(* The rows one handler derived for a responder's requester leave at
   the handler's end: as one [Query_data] while a sub-request is still
   pending, else they wait for and ride the [Query_done], which the
   caller's [check_completion] sends at once, or, under the reliable
   transport, once the earlier data has settled.  A row is held only
   when nothing is left to wait for but that data, so the stream keeps
   streaming and its end costs no message of its own. *)
let emit rt (st : Q.t) rows =
  match st.Q.qst_kind with
  | Q.Responder { requester; in_rule; _ } when rows <> [] ->
      if Q.all_done st then st.Q.qst_held <- st.Q.qst_held @ rows
      else
        send_data rt st ~dst:requester
          (Payload.Query_data
             { query_id = st.Q.qst_query; request_ref = st.Q.qst_ref; rule_id = in_rule;
               rows })
  | Q.Responder _ | Q.Root _ -> ()

let start ?on_answer rt qid query =
  (match Node.check_query rt.Runtime.node query with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Query_engine.start: " ^ reason));
  (* the query's clock starts here *)
  ignore (qstat rt qid);
  let root_ref = "root:" ^ Ids.string_of_query qid in
  let overlay = Database.copy rt.Runtime.node.Node.store in
  let st =
    Q.create ~query_id:qid ~ref_:root_ref
      ~kind:(Q.Root { query; result = None; on_answer })
      ~overlay
  in
  Hashtbl.replace rt.Runtime.node.Node.query_instances root_ref st;
  (* stream the locally available answers right away, if anyone
     listens; completion evaluates the overlay either way *)
  (match on_answer with
  | Some notify ->
      let local =
        with_counters rt qid (fun () ->
            Wrapper.eval_query_full ~sent:st.Q.qst_sent overlay query)
      in
      if local <> [] then notify local
  | None -> ());
  fan_out rt st
    ~query:(if rt.Runtime.opts.Options.pushdown then Some query else None)
    ~rels:(Query.body_relations query) ~label:[ me rt ];
  check_completion rt st;
  root_ref

(* The query the responder actually evaluates: the rule's body with
   the pushed constraints folded in where sound ([`Unchanged] when
   nothing folds, [None] for [`Unsatisfiable]).  The [Specialize.matches]
   output filter is applied regardless — it alone enforces disjunctive
   and unpushable predicates. *)
let effective_rule_query constraints (inc : Config.rule_decl) =
  match Specialize.specialize_rule constraints inc.Config.rule_query with
  | `Unsatisfiable -> None
  | `Specialized q -> Some q
  | `Unchanged -> Some inc.Config.rule_query

let filter_outgoing rt qid constraints rows =
  if Specialize.is_any constraints then rows
  else begin
    let kept = List.filter (Specialize.matches constraints) rows in
    let dropped = List.length rows - List.length kept in
    if dropped > 0 then begin
      let qs = qstat rt qid in
      qs.Stats.qs_filtered_at_source <- qs.Stats.qs_filtered_at_source + dropped
    end;
    kept
  end

let on_request rt ~src ~request_ref ~rule_id ~label ~constraints qid =
  match Node.rule_in rt.Runtime.node rule_id with
  | None ->
      (* rule dropped by a topology change: answer "done" so the
         requester does not wait forever *)
      ignore
        (Reliable.send_noted rt ~dst:src
           (Payload.Query_done
              { query_id = qid; request_ref; rule_id; complete = true; rows = [] }))
  | Some inc ->
      let overlay = Database.copy rt.Runtime.node.Node.store in
      let new_label = label @ [ me rt ] in
      let st =
        Q.create ~query_id:qid ~ref_:request_ref
          ~kind:
            (Q.Responder { requester = src; in_rule = rule_id; constraints })
          ~overlay
      in
      Hashtbl.replace rt.Runtime.node.Node.query_instances request_ref st;
      if Node.may_export rt.Runtime.node then begin
        match effective_rule_query constraints inc with
        | None ->
            (* constraints are unsatisfiable on this rule: the stream
               is empty by construction *)
            ()
        | Some eff ->
            let heads =
              with_counters rt qid (fun () ->
                  Wrapper.eval_query_full ~sent:st.Q.qst_sent overlay eff)
            in
            (* fan out from the specialized body so the pushed
               constraints compose transitively down the tree *)
            fan_out rt st
              ~query:(if rt.Runtime.opts.Options.pushdown then Some eff else None)
              ~rels:(Query.body_relations eff) ~label:new_label;
            emit rt st (filter_outgoing rt qid constraints heads)
      end;
      check_completion rt st

(* Integrate rows that arrived for one of [st]'s sub-requests into its
   overlay and return what they newly derive for a responder's
   requester; a root streams the answers they enable to its listener,
   if it has one, and returns nothing. *)
let absorb rt (st : Q.t) ~rule_id rows =
  let qid = st.Q.qst_query in
  match Node.rule_out rt.Runtime.node rule_id with
  | None -> []
  | Some o -> (
      let rel = head_rel o in
      let integration =
        Wrapper.integrate ~opts:rt.Runtime.opts ~rule_id st.Q.qst_overlay ~rel rows
      in
      (* the rows the integration just appended, through the
         instance's prepared rule *)
      let derive query =
        let prepared =
          match st.Q.qst_rule with
          | Some prepared -> prepared
          | None ->
              let prepared =
                Wrapper.prepare ~sent:st.Q.qst_sent
                  ~naive:rt.Runtime.opts.Options.naive_delta st.Q.qst_overlay query
              in
              st.Q.qst_rule <- Some prepared;
              prepared
        in
        with_counters rt qid (fun () ->
            Eval.run ~query ~delta_rel:rel ~since:integration.Wrapper.since prepared)
      in
      if integration.Wrapper.fresh = [] then []
      else
        match st.Q.qst_kind with
        | Q.Root { on_answer = None; _ } ->
            (* the overlay is authoritatively evaluated on completion,
               and nobody listens to the stream *)
            []
        | Q.Root { query; on_answer = Some notify; _ } ->
            (* stream only the answers the delta newly enables *)
            let answers = derive query in
            if answers <> [] then notify answers;
            []
        | Q.Responder { in_rule; constraints; _ } -> (
            match Node.rule_in rt.Runtime.node in_rule with
            | Some inc when Node.may_export rt.Runtime.node -> (
                match effective_rule_query constraints inc with
                | None -> []
                | Some eff -> filter_outgoing rt qid constraints (derive eff))
            | Some _ | None -> []))

let on_data rt ~bytes ~request_ref ~rule_id ~rows qid =
  Stats.note_answer_msg (qstat rt qid) ~bytes;
  match Hashtbl.find_opt rt.Runtime.node.Node.sub_refs request_ref with
  | None -> Log.debug (fun m -> m "query data for unknown sub-reference %s" request_ref)
  | Some owner_ref -> (
      match Hashtbl.find_opt rt.Runtime.node.Node.query_instances owner_ref with
      | None -> ()
      | Some st when st.Q.qst_closed ->
          (* its overlay is released and its stream is over: late data
             changes nothing *)
          ()
      | Some st ->
          (match Q.find_pending st request_ref with
          | Some p -> p.Q.p_touched <- true
          | None -> ());
          emit rt st (absorb rt st ~rule_id rows))

(* A done's rows are integrated as [on_data] integrates data, then the
   sub-request is done: what they derive is the last a responder has
   to send once its other sub-requests are done too, so it rides the
   responder's own done. *)
let on_done rt ~bytes ~request_ref ~rule_id ~complete ~rows qid =
  if rows <> [] then Stats.note_answer_msg (qstat rt qid) ~bytes;
  match Hashtbl.find_opt rt.Runtime.node.Node.sub_refs request_ref with
  | None -> ()
  | Some owner_ref -> (
      Hashtbl.remove rt.Runtime.node.Node.sub_refs request_ref;
      match Hashtbl.find_opt rt.Runtime.node.Node.query_instances owner_ref with
      | None -> ()
      | Some st ->
          (* a closed instance's stream is over: its rows change nothing *)
          let derived =
            if st.Q.qst_closed || rows = [] then [] else absorb rt st ~rule_id rows
          in
          if not complete then st.Q.qst_complete <- false;
          Q.mark_done st ~ref_:request_ref;
          emit rt st derived;
          check_completion rt st)

let handle rt ~src ~bytes payload =
  match payload with
  | Payload.Query_request { query_id; request_ref; rule_id; label; constraints } ->
      on_request rt ~src ~request_ref ~rule_id ~label ~constraints query_id
  | Payload.Query_data { query_id; request_ref; rule_id; rows } ->
      on_data rt ~bytes ~request_ref ~rule_id ~rows query_id
  | Payload.Query_done { query_id; request_ref; rule_id; complete; rows } ->
      on_done rt ~bytes ~request_ref ~rule_id ~complete ~rows query_id
  | Payload.Update_request _ | Payload.Update_data _ | Payload.Update_batch _
  | Payload.Update_link_closed _ | Payload.Update_ack _ | Payload.Update_terminated _
  | Payload.Rules_file _
  | Payload.Start_update | Payload.Stats_request | Payload.Stats_response _
  | Payload.Discovery_probe _ | Payload.Discovery_reply _ | Payload.Seq _
  | Payload.Seq_ack _ | Payload.Sub_register _ | Payload.Sub_registered _
  | Payload.Sub_unregister _ | Payload.Answer_delta _ | Payload.Answer_batch _ ->
      ()

let result node root_ref =
  match Hashtbl.find_opt node.Node.query_instances root_ref with
  | Some { Q.qst_kind = Q.Root { result; _ }; _ } -> result
  | Some { Q.qst_kind = Q.Responder _; _ } | None -> None
