type update_report = {
  ur_update : Ids.update_id;
  ur_nodes : int;
  ur_all_finished : bool;
  ur_started : float;
  ur_finished : float;
  ur_duration : float;
  ur_data_msgs : int;
  ur_control_msgs : int;
  ur_bytes : int;
  ur_new_tuples : int;
  ur_dup_suppressed : int;
  ur_nulls : int;
  ur_longest_path : int;
  ur_probes : int;
  ur_scans : int;
  ur_zvisited : int;
  ur_zpruned : int;
  ur_cache_staled : int;
  ur_per_rule : (string * Stats.rule_traffic) list;
}

let merge_per_rule updates =
  let table = Hashtbl.create 16 in
  let add rule (rt : Stats.rule_traffic) =
    match Hashtbl.find_opt table rule with
    | None -> Hashtbl.replace table rule { rt with Stats.rt_msgs = rt.Stats.rt_msgs }
    | Some (sum : Stats.rule_traffic) ->
        sum.rt_msgs <- sum.rt_msgs + rt.rt_msgs;
        sum.rt_bytes <- sum.rt_bytes + rt.rt_bytes;
        sum.rt_tuples <- sum.rt_tuples + rt.rt_tuples
  in
  List.iter (fun u -> Hashtbl.iter add u.Stats.us_per_rule) updates;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (Hashtbl.fold (fun rule rt acc -> (rule, rt) :: acc) table [])

let update_report snapshots update_id =
  let relevant =
    List.filter_map
      (fun snap ->
        List.find_opt
          (fun (u : Stats.update_stat) -> Ids.equal_update u.us_update update_id)
          snap.Stats.snap_updates)
      snapshots
  in
  match relevant with
  | [] -> None
  | first :: _ ->
      let fold (started, finished, all_fin) (u : Stats.update_stat) =
        let f, fin =
          match u.us_finished with
          | Some f -> (f, all_fin)
          | None -> (u.us_started, false)
        in
        (Float.min started u.us_started, Float.max finished f, fin)
      in
      let started, finished, all_finished =
        List.fold_left fold (first.us_started, first.us_started, true) relevant
      in
      let sum f = List.fold_left (fun acc u -> acc + f u) 0 relevant in
      Some
        {
          ur_update = update_id;
          ur_nodes = List.length relevant;
          ur_all_finished = all_finished;
          ur_started = started;
          ur_finished = finished;
          ur_duration = finished -. started;
          ur_data_msgs = sum (fun u -> u.us_data_msgs);
          ur_control_msgs = sum (fun u -> u.us_control_msgs);
          ur_bytes = sum (fun u -> u.us_bytes_in);
          ur_new_tuples = sum (fun u -> u.us_new_tuples);
          ur_dup_suppressed = sum (fun u -> u.us_dup_suppressed);
          ur_nulls = sum (fun u -> u.us_nulls_created);
          ur_longest_path =
            List.fold_left (fun acc u -> max acc u.Stats.us_max_hops) 0 relevant;
          ur_probes = sum (fun u -> u.us_eval.probes);
          ur_scans = sum (fun u -> u.us_eval.scans);
          ur_zvisited = sum (fun u -> u.us_eval.zone_visited);
          ur_zpruned = sum (fun u -> u.us_eval.zone_pruned);
          ur_cache_staled = sum (fun u -> u.us_cache_staled);
          ur_per_rule = merge_per_rule relevant;
        }

let latest_update_report snapshots =
  let all_updates = List.concat_map (fun s -> s.Stats.snap_updates) snapshots in
  match
    List.sort
      (fun (a : Stats.update_stat) b -> Float.compare b.us_started a.us_started)
      all_updates
  with
  | [] -> None
  | latest :: _ -> update_report snapshots latest.us_update

let pp_update_report ppf r =
  Fmt.pf ppf
    "@[<v 2>global update %a:@,\
     nodes: %d%s@,\
     duration: %.4fs (%.4f -> %.4f)@,\
     data messages: %d, control messages: %d@,\
     data volume: %d B@,\
     new tuples: %d, duplicates suppressed: %d, nulls created: %d@,\
     longest propagation path: %d@,\
     index probes: %d, relation scans: %d%s%a@]"
    Ids.pp_update r.ur_update r.ur_nodes
    (if r.ur_all_finished then "" else " (some unfinished)")
    r.ur_duration r.ur_started r.ur_finished r.ur_data_msgs r.ur_control_msgs r.ur_bytes
    r.ur_new_tuples r.ur_dup_suppressed r.ur_nulls r.ur_longest_path r.ur_probes
    r.ur_scans
    (if r.ur_zvisited = 0 && r.ur_zpruned = 0 then ""
     else
       Fmt.str ", zone chunks visited: %d, pruned: %d" r.ur_zvisited r.ur_zpruned)
    Fmt.(
      list ~sep:nop (fun ppf (rule, (rt : Stats.rule_traffic)) ->
          Fmt.pf ppf "@,rule %-12s %4d msgs %8d B %6d tuples" rule rt.rt_msgs
            rt.rt_bytes rt.rt_tuples))
    r.ur_per_rule

let pp_wire_report ppf r =
  Fmt.pf ppf
    "@[<v 2>wire behaviour of %a:@,\
     data messages: %d@,\
     data volume: %d B@,\
     query-cache entries staled: %d@]"
    Ids.pp_update r.ur_update r.ur_data_msgs r.ur_bytes r.ur_cache_staled

type cache_report_row = {
  cr_node : Codb_net.Peer_id.t;
  cr_hits : int;
  cr_misses : int;
  cr_ratio : float;
  cr_bytes_served : int;
  cr_invalidations : int;
  cr_entries : int;
}

let cache_report snapshots =
  let row snap =
    Option.map
      (fun (c : Codb_cache.Qcache.counters) ->
        {
          cr_node = snap.Stats.snap_node;
          cr_hits = c.hits_exact + c.hits_containment;
          cr_misses = c.misses;
          cr_ratio = Codb_cache.Qcache.hit_ratio c;
          cr_bytes_served = c.bytes_served;
          cr_invalidations = c.epoch_invalidations;
          cr_entries = c.entries;
        })
      snap.Stats.snap_cache
  in
  List.filter_map row snapshots

let pp_cache_report ppf rows =
  match rows with
  | [] -> Fmt.string ppf "query cache: disabled"
  | rows ->
      Fmt.pf ppf "@[<v 2>query cache:%a@]"
        Fmt.(
          list ~sep:nop (fun ppf r ->
              Fmt.pf ppf
                "@,node %-12s %4d hits %4d misses  ratio %.2f  %8d B served  \
                 %4d invalidated  %4d entries"
                (Codb_net.Peer_id.to_string r.cr_node)
                r.cr_hits r.cr_misses r.cr_ratio r.cr_bytes_served r.cr_invalidations
                r.cr_entries))
        rows

type pushdown_report = {
  pr_query : Ids.query_id;
  pr_pushed : int;  (** sub-requests that carried a non-trivial constraint *)
  pr_filtered_at_source : int;  (** derived tuples withheld before the wire *)
  pr_rule_cache_hits : int;  (** sub-requests served from the rule cache *)
  pr_bytes_in : int;  (** answer bytes received, network-wide *)
  pr_data_msgs : int;
}

let pushdown_report snapshots query_id =
  let relevant =
    List.filter_map
      (fun snap ->
        List.find_opt
          (fun (q : Stats.query_stat) -> Ids.equal_query q.qs_query query_id)
          snap.Stats.snap_queries)
      snapshots
  in
  match relevant with
  | [] -> None
  | _ ->
      let sum f = List.fold_left (fun acc q -> acc + f q) 0 relevant in
      Some
        {
          pr_query = query_id;
          pr_pushed = sum (fun q -> q.Stats.qs_pushed);
          pr_filtered_at_source = sum (fun q -> q.qs_filtered_at_source);
          pr_rule_cache_hits = sum (fun q -> q.qs_pushdown_hits);
          pr_bytes_in = sum (fun q -> q.qs_bytes_in);
          pr_data_msgs = sum (fun q -> q.qs_data_msgs);
        }

let pp_pushdown_report ppf p =
  Fmt.pf ppf
    "@[<v 2>constraint pushdown for %a:@,\
     constrained sub-requests: %d@,\
     tuples filtered at source: %d@,\
     rule-cache hits: %d@,\
     answer traffic: %d messages, %d B@]"
    Ids.pp_query p.pr_query p.pr_pushed p.pr_filtered_at_source p.pr_rule_cache_hits
    p.pr_data_msgs p.pr_bytes_in

type sub_report = {
  sr_registered : int;
  sr_rejected : int;
  sr_deltas_in : int;
  sr_prefiltered : int;
  sr_deltas_out : int;
  sr_push_msgs : int;
  sr_adds : int;
  sr_retracts : int;
  sr_bytes : int;
  sr_probes : int;
  sr_scans : int;
  sr_zvisited : int;
  sr_zpruned : int;
  sr_cache_staled : int;
  sr_torn_down : int;
  sr_rearmed : int;
  sr_bytes_per_answer : float;
}

let sub_report snapshots =
  let sum f = List.fold_left (fun acc s -> acc + f s.Stats.snap_sub) 0 snapshots in
  let adds = sum (fun x -> x.Stats.sb_adds)
  and retracts = sum (fun x -> x.sb_retracts)
  and bytes = sum (fun x -> x.sb_bytes) in
  {
    sr_registered = sum (fun x -> x.sb_registered);
    sr_rejected = sum (fun x -> x.sb_rejected);
    sr_deltas_in = sum (fun x -> x.sb_deltas_in);
    sr_prefiltered = sum (fun x -> x.sb_prefiltered);
    sr_deltas_out = sum (fun x -> x.sb_deltas_out);
    sr_push_msgs = sum (fun x -> x.sb_push_msgs);
    sr_adds = adds;
    sr_retracts = retracts;
    sr_bytes = bytes;
    sr_probes = sum (fun x -> x.sb_eval.probes);
    sr_scans = sum (fun x -> x.sb_eval.scans);
    sr_zvisited = sum (fun x -> x.sb_eval.zone_visited);
    sr_zpruned = sum (fun x -> x.sb_eval.zone_pruned);
    sr_cache_staled = sum (fun x -> x.sb_cache_staled);
    sr_torn_down = sum (fun x -> x.sb_torn_down);
    sr_rearmed = sum (fun x -> x.sb_rearmed);
    sr_bytes_per_answer =
      (if adds + retracts = 0 then 0.0
       else float_of_int bytes /. float_of_int (adds + retracts));
  }

let pp_sub_report ppf r =
  Fmt.pf ppf
    "@[<v 2>standing queries:@,\
     registered: %d (%d refused), torn down by crashes: %d, re-armed: %d@,\
     store deltas consumed: %d (%d tuples prefiltered at source)@,\
     answer deltas delivered: %d (%d adds, %d retracts)@,\
     push traffic: %d messages, %d B (%.1f B/answer)@,\
     evaluator work: %d probes, %d scans%s@,\
     cache entries staled by pushes: %d@]"
    r.sr_registered r.sr_rejected r.sr_torn_down r.sr_rearmed r.sr_deltas_in
    r.sr_prefiltered r.sr_deltas_out r.sr_adds r.sr_retracts
    r.sr_push_msgs r.sr_bytes r.sr_bytes_per_answer r.sr_probes r.sr_scans
    (if r.sr_zvisited = 0 && r.sr_zpruned = 0 then ""
     else
       Fmt.str ", zone chunks %d visited (%d pruned)" r.sr_zvisited r.sr_zpruned)
    r.sr_cache_staled

let pp_network ppf snapshots =
  Fmt.pf ppf "@[<v>%a@]" Fmt.(list ~sep:cut Stats.pp_snapshot) snapshots

type chaos_report = {
  chr_retransmits : int;
  chr_dup_suppressed : int;
  chr_give_ups : int;
  chr_query_timeouts : int;
  chr_partial_answers : int;
  chr_forced_terminations : int;
  chr_send_drops : int;
  chr_incomplete_queries : int;
  chr_forced_updates : int;
  chr_recovered_records : int;
  chr_replayed_bytes : int;
  chr_refetched_bytes : int;
}

let chaos_report snapshots =
  let sum f = List.fold_left (fun acc s -> acc + f s.Stats.snap_chaos) 0 snapshots in
  let count records keep =
    List.fold_left (fun acc s -> acc + List.length (List.filter keep (records s))) 0 snapshots
  in
  {
    chr_retransmits = sum (fun c -> c.Stats.ch_retransmits);
    chr_dup_suppressed = sum (fun c -> c.ch_dup_suppressed);
    chr_give_ups = sum (fun c -> c.ch_give_ups);
    chr_query_timeouts = sum (fun c -> c.ch_query_timeouts);
    chr_partial_answers = sum (fun c -> c.ch_partial_answers);
    chr_forced_terminations = sum (fun c -> c.ch_forced_terminations);
    chr_send_drops = sum (fun c -> c.ch_send_drops);
    chr_recovered_records = sum (fun c -> c.ch_recovered_records);
    chr_replayed_bytes = sum (fun c -> c.ch_replayed_bytes);
    chr_refetched_bytes = sum (fun c -> c.ch_refetched_bytes);
    chr_incomplete_queries =
      count (fun s -> s.Stats.snap_queries) (fun q -> not q.Stats.qs_complete);
    chr_forced_updates = count (fun s -> s.Stats.snap_updates) (fun u -> u.Stats.us_forced);
  }

let pp_chaos_report ppf c =
  Fmt.pf ppf
    "@[<v 2>fault tolerance:@,\
     retransmits: %d, duplicates suppressed: %d, give-ups: %d@,\
     sub-request timeouts: %d, partial answers: %d@,\
     forced terminations: %d (%d update records marked forced)@,\
     incomplete query records: %d@,\
     send drops surfaced: %d@,\
     recovery: %d records replayed (%d bytes), %d bytes refetched@]"
    c.chr_retransmits c.chr_dup_suppressed c.chr_give_ups c.chr_query_timeouts
    c.chr_partial_answers c.chr_forced_terminations c.chr_forced_updates
    c.chr_incomplete_queries c.chr_send_drops c.chr_recovered_records
    c.chr_replayed_bytes c.chr_refetched_bytes
