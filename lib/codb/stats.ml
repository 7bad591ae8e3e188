module Peer_id = Codb_net.Peer_id

type rule_traffic = {
  mutable rt_msgs : int;
  mutable rt_bytes : int;
  mutable rt_tuples : int;
}

type update_stat = {
  us_update : Ids.update_id;
  mutable us_started : float;
  mutable us_finished : float option;
  mutable us_data_msgs : int;
  mutable us_control_msgs : int;
  mutable us_bytes_in : int;
  mutable us_new_tuples : int;
  mutable us_dup_suppressed : int;
  mutable us_nulls_created : int;
  mutable us_max_hops : int;
  us_eval : Codb_cq.Eval.counters;
  mutable us_forced : bool;
  us_per_rule : (string, rule_traffic) Hashtbl.t;
  mutable us_queried : Peer_id.t list;
  mutable us_sent_to : Peer_id.t list;
}

type query_stat = {
  qs_query : Ids.query_id;
  mutable qs_started : float;
  mutable qs_finished : float option;
  mutable qs_data_msgs : int;
  mutable qs_bytes_in : int;
  mutable qs_answers : int;
  mutable qs_certain : int;
  qs_eval : Codb_cq.Eval.counters;
  mutable qs_complete : bool;
  mutable qs_pushed : int;
  mutable qs_filtered_at_source : int;
}

type sub_counters = {
  mutable sb_registered : int;
  mutable sb_rejected : int;
  mutable sb_unregistered : int;
  mutable sb_deltas_in : int;
  mutable sb_deltas_out : int;
  mutable sb_push_msgs : int;
  mutable sb_adds : int;
  mutable sb_retracts : int;
  mutable sb_bytes : int;
  sb_eval : Codb_cq.Eval.counters;
  mutable sb_torn_down : int;
  mutable sb_rearmed : int;
}

type chaos = {
  mutable ch_retransmits : int;
  mutable ch_dup_suppressed : int;
  mutable ch_give_ups : int;
  mutable ch_query_timeouts : int;
  mutable ch_partial_answers : int;
  mutable ch_forced_terminations : int;
  mutable ch_send_drops : int;
  mutable ch_recovered_records : int;
  mutable ch_replayed_bytes : int;
  mutable ch_refetched_bytes : int;
}

type t = {
  st_owner : Peer_id.t;
  st_updates : update_stat Ids.Update_tbl.t;
  st_queries : query_stat Ids.Query_tbl.t;
  mutable st_inconsistent : bool;
  st_chaos : chaos;
  st_sub : sub_counters;
}

let zero_chaos () =
  {
    ch_retransmits = 0;
    ch_dup_suppressed = 0;
    ch_give_ups = 0;
    ch_query_timeouts = 0;
    ch_partial_answers = 0;
    ch_forced_terminations = 0;
    ch_send_drops = 0;
    ch_recovered_records = 0;
    ch_replayed_bytes = 0;
    ch_refetched_bytes = 0;
  }

let zero_sub () =
  {
    sb_registered = 0;
    sb_rejected = 0;
    sb_unregistered = 0;
    sb_deltas_in = 0;
    sb_deltas_out = 0;
    sb_push_msgs = 0;
    sb_adds = 0;
    sb_retracts = 0;
    sb_bytes = 0;
    sb_eval = Codb_cq.Eval.zero_counters ();
    sb_torn_down = 0;
    sb_rearmed = 0;
  }

let create owner =
  {
    st_owner = owner;
    st_updates = Ids.Update_tbl.create 8;
    st_queries = Ids.Query_tbl.create 8;
    st_inconsistent = false;
    st_chaos = zero_chaos ();
    st_sub = zero_sub ();
  }

let chaos st = st.st_chaos

let sub st = st.st_sub

(* The evaluator's work counters are global; every protocol layer
   that runs a join charges the difference to its own record the same
   way (update fix-point, query engine, subscriptions). *)
let with_eval_counters (into : Codb_cq.Eval.counters) f =
  let before = Codb_cq.Eval.counters () in
  let result = f () in
  let after = Codb_cq.Eval.counters () in
  into.probes <- into.probes + after.probes - before.probes;
  into.scans <- into.scans + after.scans - before.scans;
  into.planned <- into.planned + after.planned - before.planned;
  into.zone_visited <- into.zone_visited + after.zone_visited - before.zone_visited;
  into.zone_pruned <- into.zone_pruned + after.zone_pruned - before.zone_pruned;
  into.matches <- into.matches + after.matches - before.matches;
  result

let note_retransmit st = st.st_chaos.ch_retransmits <- st.st_chaos.ch_retransmits + 1

let note_dup_suppressed st =
  st.st_chaos.ch_dup_suppressed <- st.st_chaos.ch_dup_suppressed + 1

let note_give_up st = st.st_chaos.ch_give_ups <- st.st_chaos.ch_give_ups + 1

let note_query_timeout st =
  st.st_chaos.ch_query_timeouts <- st.st_chaos.ch_query_timeouts + 1

let note_partial_answer st =
  st.st_chaos.ch_partial_answers <- st.st_chaos.ch_partial_answers + 1

let note_forced_termination st =
  st.st_chaos.ch_forced_terminations <- st.st_chaos.ch_forced_terminations + 1

let note_send_drop st = st.st_chaos.ch_send_drops <- st.st_chaos.ch_send_drops + 1

let note_recovery st ~records ~replayed_bytes =
  st.st_chaos.ch_recovered_records <- st.st_chaos.ch_recovered_records + records;
  st.st_chaos.ch_replayed_bytes <- st.st_chaos.ch_replayed_bytes + replayed_bytes

let note_refetched st bytes =
  st.st_chaos.ch_refetched_bytes <- st.st_chaos.ch_refetched_bytes + bytes

(* [find], not [find_opt]: a hit returns the record and allocates
   nothing, once per protocol message *)
let update_stat st ~now update_id =
  match Ids.Update_tbl.find st.st_updates update_id with
  | s -> s
  | exception Not_found ->
      let s =
        {
          us_update = update_id;
          us_started = now;
          us_finished = None;
          us_data_msgs = 0;
          us_control_msgs = 0;
          us_bytes_in = 0;
          us_new_tuples = 0;
          us_dup_suppressed = 0;
          us_nulls_created = 0;
          us_max_hops = 0;
          us_eval = Codb_cq.Eval.zero_counters ();
          us_forced = false;
          us_per_rule = Hashtbl.create 8;
          us_queried = [];
          us_sent_to = [];
        }
      in
      Ids.Update_tbl.add st.st_updates update_id s;
      s

let find_update st update_id = Ids.Update_tbl.find_opt st.st_updates update_id

let query_stat st ~now query_id =
  match Ids.Query_tbl.find st.st_queries query_id with
  | s -> s
  | exception Not_found ->
      let s =
        {
          qs_query = query_id;
          qs_started = now;
          qs_finished = None;
          qs_data_msgs = 0;
          qs_bytes_in = 0;
          qs_answers = 0;
          qs_certain = 0;
          qs_eval = Codb_cq.Eval.zero_counters ();
          qs_complete = true;
          qs_pushed = 0;
          qs_filtered_at_source = 0;
        }
      in
      Ids.Query_tbl.add st.st_queries query_id s;
      s

let find_query st query_id = Ids.Query_tbl.find_opt st.st_queries query_id

let note_answer_msg qs ~bytes =
  qs.qs_data_msgs <- qs.qs_data_msgs + 1;
  qs.qs_bytes_in <- qs.qs_bytes_in + bytes

let rule_traffic us rule_id =
  match Hashtbl.find_opt us.us_per_rule rule_id with
  | Some rt -> rt
  | None ->
      let rt = { rt_msgs = 0; rt_bytes = 0; rt_tuples = 0 } in
      Hashtbl.add us.us_per_rule rule_id rt;
      rt

let add_unique peer peers = if List.mem peer peers then peers else peer :: peers

let note_queried us peer = us.us_queried <- add_unique peer us.us_queried

let note_sent_to us peer = us.us_sent_to <- add_unique peer us.us_sent_to

let set_inconsistent st flag = st.st_inconsistent <- flag

type snapshot = {
  snap_node : Peer_id.t;
  snap_inconsistent : bool;
  snap_store_tuples : int;
  snap_updates : update_stat list;
  snap_queries : query_stat list;
  snap_chaos : chaos;
  snap_sub : sub_counters;
}

(* [{ r with f = r.f }] is a fresh record with the same fields; the
   per-rule table and the evaluator record are copied too, because
   the node keeps writing into its own. *)
let copy_eval (e : Codb_cq.Eval.counters) = { e with probes = e.probes }

let copy_update us =
  let per_rule = Hashtbl.copy us.us_per_rule in
  Hashtbl.filter_map_inplace (fun _ rt -> Some { rt with rt_msgs = rt.rt_msgs }) per_rule;
  { us with us_eval = copy_eval us.us_eval; us_per_rule = per_rule }

let snapshot ?(store_tuples = 0) st =
  let updates =
    Ids.Update_tbl.fold (fun _ us acc -> copy_update us :: acc) st.st_updates []
  in
  let queries =
    Ids.Query_tbl.fold
      (fun _ qs acc -> { qs with qs_eval = copy_eval qs.qs_eval } :: acc)
      st.st_queries []
  in
  (* start-time ties break by id, never by the tables' fold order *)
  let by_start_u a b =
    match Float.compare a.us_started b.us_started with
    | 0 -> Ids.compare_update a.us_update b.us_update
    | c -> c
  in
  let by_start_q a b =
    match Float.compare a.qs_started b.qs_started with
    | 0 -> Ids.compare_query a.qs_query b.qs_query
    | c -> c
  in
  {
    snap_node = st.st_owner;
    snap_inconsistent = st.st_inconsistent;
    snap_store_tuples = store_tuples;
    snap_updates = List.sort by_start_u updates;
    snap_queries = List.sort by_start_q queries;
    snap_chaos = { st.st_chaos with ch_retransmits = st.st_chaos.ch_retransmits };
    snap_sub = { st.st_sub with sb_eval = copy_eval st.st_sub.sb_eval };
  }

let snapshot_size_bytes snap =
  (* rough: fixed cost per record plus per-rule entries *)
  64
  + List.fold_left
      (fun acc u -> acc + 96 + (24 * Hashtbl.length u.us_per_rule))
      0 snap.snap_updates
  + (48 * List.length snap.snap_queries)
  (* charged only when subscriptions actually ran, so turning the
     feature off leaves every stats message size untouched *)
  + (if snap.snap_sub = zero_sub () then 0 else 64)

let pp_finished ppf = function
  | None -> Fmt.string ppf "unfinished"
  | Some f -> Fmt.pf ppf "%.4fs" f

let pp_peer_list ppf = function
  | [] -> Fmt.string ppf "none"
  | peers -> Fmt.(list ~sep:(any ", ") Peer_id.pp) ppf peers

(* Zone-map counters print only when they moved, so feature-off
   reports are byte-identical to the pre-zone-map format. *)
let zone_suffix ~visited ~pruned =
  if visited = 0 && pruned = 0 then ""
  else Fmt.str ", zone chunks %d visited (%d pruned)" visited pruned

let sorted_rules us =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun rule rt acc -> (rule, rt) :: acc) us.us_per_rule [])

let pp_update ppf u =
  Fmt.pf ppf
    "@[<v 2>%a%s: started %.4fs, finished %a, data msgs %d, control msgs %d, bytes in \
     %d, new tuples %d, dups suppressed %d, nulls %d, longest path %d, index \
     probes %d, scans %d%s@,\
     queried: %a@,\
     results sent to: %a%a@]"
    Ids.pp_update u.us_update
    (if u.us_forced then " (FORCED TERMINATION)" else "")
    u.us_started pp_finished u.us_finished u.us_data_msgs
    u.us_control_msgs u.us_bytes_in u.us_new_tuples u.us_dup_suppressed
    u.us_nulls_created u.us_max_hops u.us_eval.probes u.us_eval.scans
    (zone_suffix ~visited:u.us_eval.zone_visited ~pruned:u.us_eval.zone_pruned)
    pp_peer_list
    u.us_queried pp_peer_list
    u.us_sent_to
    Fmt.(
      list ~sep:nop (fun ppf (rule, rt) ->
          Fmt.pf ppf "@,rule %s: %d msgs, %d B, %d tuples" rule rt.rt_msgs
            rt.rt_bytes rt.rt_tuples))
    (sorted_rules u)

let pp_query ppf q =
  Fmt.pf ppf
    "%a: %d answers (%d certain)%s, %d data msgs, %d B in, %d probes, %d scans%s%s"
    Ids.pp_query q.qs_query q.qs_answers q.qs_certain
    (if q.qs_complete then "" else " INCOMPLETE")
    q.qs_data_msgs q.qs_bytes_in q.qs_eval.probes q.qs_eval.scans
    (zone_suffix ~visited:q.qs_eval.zone_visited ~pruned:q.qs_eval.zone_pruned)
    (if q.qs_pushed = 0 && q.qs_filtered_at_source = 0 then ""
     else
       Fmt.str ", pushdown: %d constrained sub-requests, %d filtered at source"
         q.qs_pushed q.qs_filtered_at_source)

let pp_chaos ppf c =
  Fmt.pf ppf
    "transport: %d retransmits, %d dups suppressed, %d give-ups, %d sub-request \
     timeouts, %d partial answers, %d forced terminations, %d send drops, %d \
     recovered records, %d replayed bytes, %d refetched bytes"
    c.ch_retransmits c.ch_dup_suppressed c.ch_give_ups c.ch_query_timeouts
    c.ch_partial_answers c.ch_forced_terminations c.ch_send_drops
    c.ch_recovered_records c.ch_replayed_bytes c.ch_refetched_bytes

let pp_sub ppf s =
  Fmt.pf ppf
    "subs: %d registered (%d refused, %d dropped), %d deltas in, \
     %d deltas out in %d msgs (+%d -%d, %d B), %d probes, %d scans%s, \
     %d torn down, %d re-armed"
    s.sb_registered s.sb_rejected s.sb_unregistered s.sb_deltas_in
    s.sb_deltas_out s.sb_push_msgs s.sb_adds s.sb_retracts
    s.sb_bytes s.sb_eval.probes s.sb_eval.scans
    (zone_suffix ~visited:s.sb_eval.zone_visited ~pruned:s.sb_eval.zone_pruned)
    s.sb_torn_down s.sb_rearmed

let pp_snapshot ppf s =
  Fmt.pf ppf "@[<v 2>node %a (%s, %d tuples)%a%a%a%a@]" Peer_id.pp s.snap_node
    (if s.snap_inconsistent then "INCONSISTENT" else "consistent")
    s.snap_store_tuples
    Fmt.(list ~sep:nop (fun ppf u -> Fmt.pf ppf "@,%a" pp_update u))
    s.snap_updates
    Fmt.(list ~sep:nop (fun ppf q -> Fmt.pf ppf "@,%a" pp_query q))
    s.snap_queries
    (fun ppf c -> if c <> zero_chaos () then Fmt.pf ppf "@,%a" pp_chaos c)
    s.snap_chaos
    (fun ppf s -> if s <> zero_sub () then Fmt.pf ppf "@,%a" pp_sub s)
    s.snap_sub
