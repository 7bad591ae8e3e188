module Peer_id = Codb_net.Peer_id
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Eval = Codb_cq.Eval
module Specialize = Codb_cq.Specialize
module Tuple = Codb_relalg.Tuple
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

let complete_root rt (st : Q.t) query set_result =
  let answers =
    with_counters rt st.Q.qst_query (fun () ->
        Wrapper.user_answers st.Q.qst_overlay query)
  in
  set_result answers;
  st.Q.qst_closed <- true;
  (* a partial answer is a lower bound, not the query's answer: caching
     it would keep serving the hole long after the network healed *)
  (match rt.Runtime.node.Node.cache with
  | Some cache when st.Q.qst_complete ->
      Codb_cache.Qcache.store cache query answers
        ~sources:(me rt :: st.Q.qst_contacted)
  | Some _ | None -> ());
  let qs = qstat rt st.Q.qst_query in
  qs.Stats.qs_finished <- Some (rt.Runtime.now ());
  qs.Stats.qs_answers <- List.length answers;
  qs.Stats.qs_certain <- List.length (Eval.certain answers);
  qs.Stats.qs_complete <- st.Q.qst_complete;
  if not st.Q.qst_complete then Stats.note_partial_answer rt.Runtime.node.Node.stats

(* Responders on an inconsistent node serve no data (principle (d)). *)
let may_export (rt : Runtime.t) =
  rt.node.Node.decl.Config.constraints = [] || Node.is_consistent rt.node

let finish_responder rt (st : Q.t) ~requester ~in_rule =
  st.Q.qst_closed <- true;
  (* The complete constrained answer stream of this rule instance is
     worth remembering: a later request with the same (or stronger)
     constraints is served without re-running the diffusion.  Partial
     streams are never stored. *)
  (match (st.Q.qst_kind, rt.Runtime.node.Node.cache) with
  | Q.Responder { constraints; label; from_cache; _ }, Some cache
    when rt.Runtime.opts.Options.pushdown && st.Q.qst_complete && not from_cache ->
      Codb_cache.Qcache.store_rule cache ~rule_id:in_rule
        ~label constraints
        (Q.Tuple_set.elements st.Q.qst_sent)
        ~sources:(me rt :: st.Q.qst_contacted)
  | (Q.Responder _ | Q.Root _), _ -> ());
  ignore
    (Reliable.send_noted rt ~dst:requester
       (Payload.Query_done
          { query_id = st.Q.qst_query; request_ref = st.Q.qst_ref; rule_id = in_rule;
            complete = st.Q.qst_complete }))

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
        Q.note_contacted st target;
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
  if Options.reliable rt.Runtime.opts && Option.is_some rt.Runtime.node.Node.relay
  then begin
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

(* Streaming ("browse streaming results"): report answers not yet
   reported and return the enlarged reported-set. *)
let notify_fresh ~on_answer ~streamed answers =
  match on_answer with
  | None -> streamed
  | Some notify ->
      let fresh = List.filter (fun t -> not (Q.Tuple_set.mem t streamed)) answers in
      if fresh <> [] then notify fresh;
      List.fold_left (fun acc t -> Q.Tuple_set.add t acc) streamed fresh

let start ?on_answer rt qid query =
  (match Node.check_query rt.Runtime.node query with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Query_engine.start: " ^ reason));
  let qs = qstat rt qid in
  let root_ref = "root:" ^ Ids.string_of_query qid in
  let cache_hit =
    match rt.Runtime.node.Node.cache with
    | None -> None
    | Some cache -> Codb_cache.Qcache.lookup cache query
  in
  match cache_hit with
  | Some { Codb_cache.Qcache.answers; kind } ->
      (* answered entirely from the cache: no diffusion, the root
         instance is born closed *)
      let streamed = notify_fresh ~on_answer ~streamed:Q.Tuple_set.empty answers in
      let st =
        Q.create ~query_id:qid ~ref_:root_ref
          ~kind:(Q.Root { query; result = Some answers; streamed; on_answer })
          ~overlay:(Database.create [])
      in
      st.Q.qst_closed <- true;
      Hashtbl.replace rt.Runtime.node.Node.query_instances root_ref st;
      qs.Stats.qs_finished <- Some (rt.Runtime.now ());
      qs.Stats.qs_answers <- List.length answers;
      qs.Stats.qs_certain <- List.length (Eval.certain answers);
      qs.Stats.qs_cache <-
        (match kind with
        | Codb_cache.Qcache.Exact -> Stats.Cache_hit_exact
        | Codb_cache.Qcache.By_containment -> Stats.Cache_hit_containment);
      root_ref
  | None ->
      if Option.is_some rt.Runtime.node.Node.cache then
        qs.Stats.qs_cache <- Stats.Cache_miss;
      let overlay = Database.copy rt.Runtime.node.Node.store in
      let st =
        Q.create ~query_id:qid ~ref_:root_ref
          ~kind:
            (Q.Root { query; result = None; streamed = Q.Tuple_set.empty; on_answer })
          ~overlay
      in
      Hashtbl.replace rt.Runtime.node.Node.query_instances root_ref st;
      (* stream the locally available answers right away *)
      (match st.Q.qst_kind with
      | Q.Root root ->
          let local =
            with_counters rt qid (fun () ->
                Wrapper.user_answers overlay query)
          in
          root.streamed <- notify_fresh ~on_answer ~streamed:root.streamed local
      | Q.Responder _ -> ());
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

let filter_outgoing rt qid constraints tuples =
  if Specialize.is_any constraints then tuples
  else begin
    let kept = List.filter (Specialize.matches constraints) tuples in
    let dropped = List.length tuples - List.length kept in
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
           (Payload.Query_done { query_id = qid; request_ref; rule_id; complete = true }))
  | Some inc ->
      let overlay = Database.copy rt.Runtime.node.Node.store in
      let new_label = label @ [ me rt ] in
      let st =
        Q.create ~query_id:qid ~ref_:request_ref
          ~kind:
            (Q.Responder
               { requester = src; in_rule = rule_id; label = new_label; constraints;
                 from_cache = false })
          ~overlay
      in
      Hashtbl.replace rt.Runtime.node.Node.query_instances request_ref st;
      if may_export rt then begin
        let cache_hit =
          match rt.Runtime.node.Node.cache with
          | Some cache when rt.Runtime.opts.Options.pushdown ->
              Codb_cache.Qcache.lookup_rule cache ~rule_id
                ~label:new_label constraints
          | Some _ | None -> None
        in
        match cache_hit with
        | Some { Codb_cache.Qcache.answers; kind = _ } ->
            (* the cached stream is the rule's full constrained answer:
               serve it and stop — no evaluation, no fan-out *)
            (match st.Q.qst_kind with
            | Q.Responder r -> r.from_cache <- true
            | Q.Root _ -> ());
            let qs = qstat rt qid in
            qs.Stats.qs_pushdown_hits <- qs.Stats.qs_pushdown_hits + 1;
            let fresh = Q.unsent st answers in
            if fresh <> [] then
              send_data rt st ~dst:src
                (Payload.Query_data
                   { query_id = qid; request_ref; rule_id; tuples = fresh })
        | None -> (
            match effective_rule_query constraints inc with
            | None ->
                (* constraints are unsatisfiable on this rule: the
                   stream is empty by construction *)
                ()
            | Some eff ->
                let tuples =
                  with_counters rt qid (fun () ->
                      Wrapper.eval_query_full overlay eff)
                in
                let kept = filter_outgoing rt qid constraints tuples in
                let fresh = Q.unsent st kept in
                if fresh <> [] then
                  send_data rt st ~dst:src
                    (Payload.Query_data
                       { query_id = qid; request_ref; rule_id; tuples = fresh });
                (* fan out from the specialized body so the pushed
                   constraints compose transitively down the tree *)
                fan_out rt st
                  ~query:(if rt.Runtime.opts.Options.pushdown then Some eff else None)
                  ~rels:(Query.body_relations eff) ~label:new_label)
      end;
      check_completion rt st

let on_data rt ~bytes ~request_ref ~rule_id ~tuples qid =
  let qs = qstat rt qid in
  qs.Stats.qs_data_msgs <- qs.Stats.qs_data_msgs + 1;
  qs.Stats.qs_bytes_in <- qs.Stats.qs_bytes_in + bytes;
  match Hashtbl.find_opt rt.Runtime.node.Node.sub_refs request_ref with
  | None -> Log.debug (fun m -> m "query data for unknown sub-reference %s" request_ref)
  | Some owner_ref -> (
      match Hashtbl.find_opt rt.Runtime.node.Node.query_instances owner_ref with
      | None -> ()
      | Some st -> (
          (match Q.find_pending st request_ref with
          | Some p -> p.Q.p_touched <- true
          | None -> ());
          match Node.rule_out rt.Runtime.node rule_id with
          | None -> ()
          | Some o ->
              let rel = head_rel o in
              let integration =
                Wrapper.integrate ~opts:rt.Runtime.opts ~rule_id st.Q.qst_overlay ~rel
                  tuples
              in
              if integration.Wrapper.fresh <> [] then begin
                match st.Q.qst_kind with
                | Q.Root root ->
                    (* the overlay is authoritatively evaluated on
                       completion; here we only stream the answers the
                       delta newly enables *)
                    let substs =
                      with_counters rt qid (fun () ->
                          Eval.delta_answers
                            ~naive:rt.Runtime.opts.Options.naive_delta
                            (Eval.of_database st.Q.qst_overlay)
                            ~delta_rel:rel ~since:integration.Wrapper.since
                            ~delta:integration.Wrapper.fresh root.query)
                    in
                    let answers = Codb_cq.Apply.head_tuples root.query substs in
                    root.streamed <-
                      notify_fresh ~on_answer:root.on_answer
                        ~streamed:root.streamed answers
                | Q.Responder { requester; in_rule; constraints; _ } -> (
                    match Node.rule_in rt.Runtime.node in_rule with
                    | None -> ()
                    | Some inc ->
                        if may_export rt then
                          match effective_rule_query constraints inc with
                          | None -> ()
                          | Some eff ->
                              let derived =
                                with_counters rt qid (fun () ->
                                    Wrapper.eval_query_delta
                                      ~naive:rt.Runtime.opts.Options.naive_delta
                                      st.Q.qst_overlay eff ~delta_rel:rel
                                      ~since:integration.Wrapper.since
                                      ~delta:integration.Wrapper.fresh)
                              in
                              let kept = filter_outgoing rt qid constraints derived in
                              let fresh = Q.unsent st kept in
                              if fresh <> [] then
                                send_data rt st ~dst:requester
                                  (Payload.Query_data
                                     { query_id = qid; request_ref = st.Q.qst_ref;
                                       rule_id = in_rule; tuples = fresh }))
              end))

let on_done rt ~request_ref ~complete qid =
  ignore qid;
  match Hashtbl.find_opt rt.Runtime.node.Node.sub_refs request_ref with
  | None -> ()
  | Some owner_ref -> (
      Hashtbl.remove rt.Runtime.node.Node.sub_refs request_ref;
      match Hashtbl.find_opt rt.Runtime.node.Node.query_instances owner_ref with
      | None -> ()
      | Some st ->
          if not complete then st.Q.qst_complete <- false;
          Q.mark_done st ~ref_:request_ref;
          check_completion rt st)

let handle rt ~src ~bytes payload =
  match payload with
  | Payload.Query_request { query_id; request_ref; rule_id; label; constraints } ->
      on_request rt ~src ~request_ref ~rule_id ~label ~constraints query_id
  | Payload.Query_data { query_id; request_ref; rule_id; tuples } ->
      on_data rt ~bytes ~request_ref ~rule_id ~tuples query_id
  | Payload.Query_done { query_id; request_ref; rule_id = _; complete } ->
      on_done rt ~request_ref ~complete query_id
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
