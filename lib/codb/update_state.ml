module Peer_id = Codb_net.Peer_id

type link_state = Link_open | Link_closed

(* Everything an update keeps per link and per destination.  It lives
   until the update terminates; a terminated update keeps only its
   flags. *)
type live = {
  out : (string, link_state) Hashtbl.t;  (* my outgoing links *)
  inl : (string, link_state) Hashtbl.t;  (* my incoming links *)
  sent : (string, Sent_filter.t) Hashtbl.t;
      (* per incoming link: packed head rows (holes included) already
         sent *)
  rules : (string, Codb_cq.Eval.prepared) Hashtbl.t;
      (* per incoming link: its rule, prepared to project into the
         link's sent filter *)
  marks : (string, Watermark.pending) Hashtbl.t;
      (* per incoming link served in this update: its pending
         watermark *)
  unacked : (Peer_id.t, int) Hashtbl.t;
      (* reliable transport only: data messages, and messages to the
         engagement parent, sent to a destination and not yet settled
         (acked or given up) *)
  deferred : (Peer_id.t, string list) Hashtbl.t;
      (* link closes held back until the destination's in-flight data
         settles, newest first *)
  mutable held : string list;
      (* closes to the engagement parent, held until the end of the
         handler, when they leave in one message with the rows of
         their links; newest first *)
  mutable done_peers : Peer_id.t list;
      (* acquaintances whose acknowledgement came in a message that
         reported their subtree done *)
}

type t = {
  ust_update : Ids.update_id;
  ust_initiator : bool;
  ust_scoped : bool;
  mutable ust_parent : Peer_id.t option;
  mutable ust_engaged : bool;
  mutable ust_deficit : int;
  mutable ust_live : live option;
  mutable ust_terminated : bool;
  mutable ust_finished : bool;
  mutable ust_activity : int;
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
    ust_live =
      Some
        {
          out;
          inl;
          sent = Hashtbl.create 8;
          rules = Hashtbl.create 8;
          marks = Hashtbl.create 8;
          unacked = Hashtbl.create 8;
          deferred = Hashtbl.create 8;
          held = [];
          done_peers = [];
        };
    ust_terminated = false;
    ust_finished = false;
    ust_activity = 0;
  }

let touch st = st.ust_activity <- st.ust_activity + 1

(* A released update answers every question as a finished one would:
   no link open, nothing in flight or pending. *)
let find table key = function
  | Some live -> Hashtbl.find_opt (table live) key
  | None -> None

let out_state st rule =
  Option.value ~default:Link_closed (find (fun l -> l.out) rule st.ust_live)

let in_state st rule =
  Option.value ~default:Link_closed (find (fun l -> l.inl) rule st.ust_live)

let is_active_in st rule = Option.is_some (find (fun l -> l.inl) rule st.ust_live)

let is_active_out st rule = Option.is_some (find (fun l -> l.out) rule st.ust_live)

let set table st key value =
  match st.ust_live with Some live -> Hashtbl.replace (table live) key value | None -> ()

let remove table st key =
  match st.ust_live with Some live -> Hashtbl.remove (table live) key | None -> ()

let activate_out st rule =
  if not (is_active_out st rule) then set (fun l -> l.out) st rule Link_open

let activate_in st rule =
  if not (is_active_in st rule) then set (fun l -> l.inl) st rule Link_open

let close_out st rule = set (fun l -> l.out) st rule Link_closed

let close_in st rule = set (fun l -> l.inl) st rule Link_closed

let all_closed_in table = Hashtbl.fold (fun _ state acc -> acc && state = Link_closed) table true

let all_out_closed st =
  match st.ust_live with Some live -> all_closed_in live.out | None -> true

let all_links_closed st =
  match st.ust_live with
  | Some live -> all_closed_in live.out && all_closed_in live.inl
  | None -> true

(* ---- Per-incoming-link sent filters --------------------------------- *)

let sent_filter st rule =
  match st.ust_live with
  | None -> Sent_filter.create ()
  | Some live -> (
      match Hashtbl.find_opt live.sent rule with
      | Some f -> f
      | None ->
          let f = Sent_filter.create () in
          Hashtbl.add live.sent rule f;
          f)

let link_rule st rule ~make =
  match st.ust_live with
  | None -> make (Sent_filter.create ())
  | Some live -> (
      match Hashtbl.find_opt live.rules rule with
      | Some prepared -> prepared
      | None ->
          let prepared = make (sent_filter st rule) in
          Hashtbl.add live.rules rule prepared;
          prepared)

let sent_tracked st rule =
  match find (fun l -> l.sent) rule st.ust_live with
  | Some f -> Sent_filter.tracked f
  | None -> 0

(* ---- Per-incoming-link pending watermarks ---------------------------- *)

let note_served st rule mark = set (fun l -> l.marks) st rule mark

let served st rule = find (fun l -> l.marks) rule st.ust_live

let take_served st rule =
  let mark = served st rule in
  remove (fun l -> l.marks) st rule;
  mark

let take_all_served st =
  match st.ust_live with
  | Some live ->
      let marks = Hashtbl.fold (fun rule mark acc -> (rule, mark) :: acc) live.marks [] in
      Hashtbl.reset live.marks;
      marks
  | None -> []

let release st = st.ust_live <- None

(* ---- Per-destination transport settlement ---------------------------- *)

let dst_unacked st ~dst =
  Option.value ~default:0 (find (fun l -> l.unacked) dst st.ust_live)

let incr_unacked st ~dst = set (fun l -> l.unacked) st dst (dst_unacked st ~dst + 1)

let decr_unacked st ~dst =
  set (fun l -> l.unacked) st dst (max 0 (dst_unacked st ~dst - 1))

let defer_close st ~dst ~rule =
  let tail = Option.value ~default:[] (find (fun l -> l.deferred) dst st.ust_live) in
  set (fun l -> l.deferred) st dst (rule :: tail)

let has_deferred_closes st =
  match st.ust_live with Some live -> Hashtbl.length live.deferred > 0 | None -> false

let take_deferred_closes st ~dst =
  match find (fun l -> l.deferred) dst st.ust_live with
  | None -> []
  | Some closes ->
      remove (fun l -> l.deferred) st dst;
      List.rev closes

(* ---- Closes held for the engagement parent --------------------------- *)

let hold_close st ~rule =
  match st.ust_live with Some live -> live.held <- rule :: live.held | None -> ()

let take_held_closes st =
  match st.ust_live with
  | Some live ->
      let closes = List.rev live.held in
      live.held <- [];
      closes
  | None -> []

(* ---- Subtrees reported done ------------------------------------------ *)

let note_done st peer =
  match st.ust_live with Some live -> live.done_peers <- peer :: live.done_peers | None -> ()

let done_peers st = match st.ust_live with Some live -> live.done_peers | None -> []
