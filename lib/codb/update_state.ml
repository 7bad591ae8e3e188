module Peer_id = Codb_net.Peer_id
module Tuple = Codb_relalg.Tuple
module Tuple_set = Codb_relalg.Relation.Tuple_set

type link_state = Link_open | Link_closed

(* One rule's coalesced firings inside a destination buffer: a dedup set to
   kill same-window duplicates plus the reverse insertion order so flushed
   batches stay deterministic. *)
type buffer_entry = {
  mutable be_hops : int;
  mutable be_set : Tuple_set.t;
  mutable be_rev : Tuple.t list;
}

type dest_buffer = {
  db_entries : (string, buffer_entry) Hashtbl.t;
  mutable db_tuples : int;
  mutable db_scheduled : bool;
}

type t = {
  ust_update : Ids.update_id;
  ust_initiator : bool;
  ust_scoped : bool;
  mutable ust_parent : Peer_id.t option;
  mutable ust_engaged : bool;
  mutable ust_deficit : int;
  ust_out : (string, link_state) Hashtbl.t;
  ust_in : (string, link_state) Hashtbl.t;
  ust_sent : (string, Sent_filter.t) Hashtbl.t;
  ust_wire : (Peer_id.t, dest_buffer) Hashtbl.t;
  mutable ust_pending : int;
  mutable ust_terminated : bool;
  mutable ust_finished : bool;
  mutable ust_activity : int;
  ust_unacked : (Peer_id.t, int) Hashtbl.t;
  ust_deferred : (Peer_id.t, (string * bool) list) Hashtbl.t;
}

let create ~initiator ?(scoped = false) ~outgoing ~incoming update_id =
  let out = Hashtbl.create 8 and inl = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace out r Link_open) outgoing;
  List.iter (fun r -> Hashtbl.replace inl r Link_open) incoming;
  {
    ust_update = update_id;
    ust_initiator = initiator;
    ust_scoped = scoped;
    ust_parent = None;
    ust_engaged = false;
    ust_deficit = 0;
    ust_out = out;
    ust_in = inl;
    ust_sent = Hashtbl.create 8;
    ust_wire = Hashtbl.create 8;
    ust_pending = 0;
    ust_terminated = false;
    ust_finished = false;
    ust_activity = 0;
    ust_unacked = Hashtbl.create 8;
    ust_deferred = Hashtbl.create 8;
  }

let touch st = st.ust_activity <- st.ust_activity + 1

let out_state st rule =
  Option.value ~default:Link_closed (Hashtbl.find_opt st.ust_out rule)

let in_state st rule = Option.value ~default:Link_closed (Hashtbl.find_opt st.ust_in rule)

let is_active_in st rule = Hashtbl.mem st.ust_in rule

let is_active_out st rule = Hashtbl.mem st.ust_out rule

let activate_out st rule =
  if not (Hashtbl.mem st.ust_out rule) then Hashtbl.replace st.ust_out rule Link_open

let activate_in st rule =
  if not (Hashtbl.mem st.ust_in rule) then Hashtbl.replace st.ust_in rule Link_open

let close_out st rule = Hashtbl.replace st.ust_out rule Link_closed

let close_in st rule = Hashtbl.replace st.ust_in rule Link_closed

let all_out_closed st =
  Hashtbl.fold (fun _ state acc -> acc && state = Link_closed) st.ust_out true

(* ---- Per-incoming-link sent filters --------------------------------- *)

let sent_filter st rule =
  match Hashtbl.find_opt st.ust_sent rule with
  | Some f -> f
  | None ->
      let f = Sent_filter.create () in
      Hashtbl.add st.ust_sent rule f;
      f

let add_sent st rule tuples =
  let f = sent_filter st rule in
  List.iter (Sent_filter.note_sent f) tuples

let sent_tracked st rule =
  match Hashtbl.find_opt st.ust_sent rule with
  | Some f -> Sent_filter.tracked f
  | None -> 0

let release_sent st = Hashtbl.reset st.ust_sent

(* ---- Per-destination wire buffers ----------------------------------- *)

let dest_buffer st dst =
  match Hashtbl.find_opt st.ust_wire dst with
  | Some b -> b
  | None ->
      let b = { db_entries = Hashtbl.create 4; db_tuples = 0; db_scheduled = false } in
      Hashtbl.add st.ust_wire dst b;
      b

let buffer_add st ~dst ~rule ~hops tuples =
  let b = dest_buffer st dst in
  let e =
    match Hashtbl.find_opt b.db_entries rule with
    | Some e -> e
    | None ->
        let e = { be_hops = hops; be_set = Tuple_set.empty; be_rev = [] } in
        Hashtbl.add b.db_entries rule e;
        e
  in
  e.be_hops <- max e.be_hops hops;
  let added =
    List.fold_left
      (fun acc t ->
        if Tuple_set.mem t e.be_set then acc
        else begin
          e.be_set <- Tuple_set.add t e.be_set;
          e.be_rev <- t :: e.be_rev;
          acc + 1
        end)
      0 tuples
  in
  b.db_tuples <- b.db_tuples + added;
  st.ust_pending <- st.ust_pending + added;
  added

let buffer_size st ~dst =
  match Hashtbl.find_opt st.ust_wire dst with Some b -> b.db_tuples | None -> 0

let take_buffer st ~dst =
  match Hashtbl.find_opt st.ust_wire dst with
  | None -> []
  | Some b ->
      let entries =
        Hashtbl.fold
          (fun rule e acc ->
            if e.be_rev = [] then acc else (rule, e.be_hops, List.rev e.be_rev) :: acc)
          b.db_entries []
      in
      st.ust_pending <- st.ust_pending - b.db_tuples;
      b.db_tuples <- 0;
      Hashtbl.reset b.db_entries;
      (* deterministic batch layout regardless of hash order *)
      List.sort (fun (r1, _, _) (r2, _, _) -> String.compare r1 r2) entries

let pending_tuples st = st.ust_pending

let flush_scheduled st ~dst =
  match Hashtbl.find_opt st.ust_wire dst with Some b -> b.db_scheduled | None -> false

let set_flush_scheduled st ~dst flag = (dest_buffer st dst).db_scheduled <- flag

(* ---- Per-destination transport settlement ---------------------------- *)

let dst_unacked st ~dst = Option.value ~default:0 (Hashtbl.find_opt st.ust_unacked dst)

let incr_unacked st ~dst = Hashtbl.replace st.ust_unacked dst (dst_unacked st ~dst + 1)

let decr_unacked st ~dst =
  Hashtbl.replace st.ust_unacked dst (max 0 (dst_unacked st ~dst - 1))

let defer_close st ~dst ~rule ~global =
  let tail = Option.value ~default:[] (Hashtbl.find_opt st.ust_deferred dst) in
  Hashtbl.replace st.ust_deferred dst ((rule, global) :: tail)

let take_deferred_closes st ~dst =
  match Hashtbl.find_opt st.ust_deferred dst with
  | None -> []
  | Some closes ->
      Hashtbl.remove st.ust_deferred dst;
      List.rev closes
