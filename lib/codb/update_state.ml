module Peer_id = Codb_net.Peer_id

type link_state = Link_open | Link_closed

type dir = Out | In

(* One link's state in an update: a record per link, since a node has
   few.  [state] is [None] until the link is activated; the rest only
   serves incoming links. *)
type link = {
  dir : dir;
  rule : string;
  mutable state : link_state option;
  mutable sent : Sent_filter.t option;
      (* packed head rows (holes included) already sent *)
  mutable prepared : Codb_cq.Eval.prepared option;
      (* the link's rule, prepared to project into [sent] *)
  mutable mark : Watermark.pending option;
      (* served in this update: its pending watermark *)
}

(* One destination's transport settlement *)
type dest = {
  dst : Peer_id.t;
  mutable unacked : int;
      (* reliable transport only: data messages, and messages to the
         engagement parent, sent to the destination and not yet
         settled (acked or given up) *)
  mutable deferred : string list;
      (* link closes held back until the destination's in-flight data
         settles, newest first *)
}

(* Everything an update keeps per link and per destination.  It lives
   until the update terminates; a terminated update keeps only its
   flags. *)
type live = {
  mutable links : link list;  (* my outgoing and incoming links *)
  mutable dests : dest list;
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

let rec lookup dir rule = function
  | [] -> None
  | l :: rest ->
      if l.dir = dir && String.equal l.rule rule then Some l else lookup dir rule rest

let new_link ?state dir rule = { dir; rule; state; sent = None; prepared = None; mark = None }

let create ~initiator ?(scoped = false) ~outgoing ~incoming update_id =
  (* a rule named twice is one link *)
  let open_links dir =
    List.fold_left
      (fun links rule ->
        if Option.is_some (lookup dir rule links) then links
        else new_link ~state:Link_open dir rule :: links)
  in
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
          links = open_links In (open_links Out [] outgoing) incoming;
          dests = [];
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
let find dir st rule =
  match st.ust_live with Some live -> lookup dir rule live.links | None -> None

(* The link's record, added on first use; [None] once released, when
   writes are ignored. *)
let link dir st rule =
  match st.ust_live with
  | None -> None
  | Some live -> (
      match lookup dir rule live.links with
      | Some _ as found -> found
      | None ->
          let l = new_link dir rule in
          live.links <- l :: live.links;
          Some l)

let state_of = function Some { state = Some s; _ } -> s | Some _ | None -> Link_closed

let active = function Some { state = Some _; _ } -> true | Some _ | None -> false

let out_state st rule = state_of (find Out st rule)

let in_state st rule = state_of (find In st rule)

let is_active_in st rule = active (find In st rule)

let is_active_out st rule = active (find Out st rule)

let set_state link state = match link with Some l -> l.state <- Some state | None -> ()

let activate_out st rule = if not (is_active_out st rule) then set_state (link Out st rule) Link_open

let activate_in st rule = if not (is_active_in st rule) then set_state (link In st rule) Link_open

let close_out st rule = set_state (link Out st rule) Link_closed

let close_in st rule = set_state (link In st rule) Link_closed

let all_out_closed st =
  match st.ust_live with
  | Some live -> List.for_all (fun l -> l.dir = In || l.state <> Some Link_open) live.links
  | None -> true

let all_links_closed st =
  match st.ust_live with
  | Some live -> List.for_all (fun l -> l.state <> Some Link_open) live.links
  | None -> true

(* ---- Per-incoming-link sent filters --------------------------------- *)

let sent_filter st rule =
  match link In st rule with
  | None -> Sent_filter.create ()
  | Some { sent = Some f; _ } -> f
  | Some l ->
      let f = Sent_filter.create () in
      l.sent <- Some f;
      f

let link_rule st rule ~make =
  match link In st rule with
  | None -> make (Sent_filter.create ())
  | Some { prepared = Some prepared; _ } -> prepared
  | Some l ->
      let prepared = make (sent_filter st rule) in
      l.prepared <- Some prepared;
      prepared

let sent_tracked st rule =
  match find In st rule with
  | Some { sent = Some f; _ } -> Sent_filter.tracked f
  | Some _ | None -> 0

(* ---- Per-incoming-link pending watermarks ---------------------------- *)

let note_served st rule mark =
  match link In st rule with Some l -> l.mark <- Some mark | None -> ()

let served st rule = match find In st rule with Some l -> l.mark | None -> None

let take_served st rule =
  match find In st rule with
  | Some l ->
      let mark = l.mark in
      l.mark <- None;
      mark
  | None -> None

let take_all_served st =
  match st.ust_live with
  | Some live ->
      List.fold_left
        (fun acc l ->
          match l.mark with
          | Some mark ->
              l.mark <- None;
              (l.rule, mark) :: acc
          | None -> acc)
        [] live.links
  | None -> []

let release st = st.ust_live <- None

(* ---- Per-destination transport settlement ---------------------------- *)

let rec lookup_dest dst = function
  | [] -> None
  | d :: rest -> if Peer_id.equal d.dst dst then Some d else lookup_dest dst rest

let find_dest st dst =
  match st.ust_live with Some live -> lookup_dest dst live.dests | None -> None

let dest st dst =
  match st.ust_live with
  | None -> None
  | Some live -> (
      match lookup_dest dst live.dests with
      | Some _ as found -> found
      | None ->
          let d = { dst; unacked = 0; deferred = [] } in
          live.dests <- d :: live.dests;
          Some d)

let dst_unacked st ~dst = match find_dest st dst with Some d -> d.unacked | None -> 0

let incr_unacked st ~dst = match dest st dst with Some d -> d.unacked <- d.unacked + 1 | None -> ()

let decr_unacked st ~dst =
  match dest st dst with Some d -> d.unacked <- max 0 (d.unacked - 1) | None -> ()

let defer_close st ~dst ~rule =
  match dest st dst with Some d -> d.deferred <- rule :: d.deferred | None -> ()

let has_deferred_closes st =
  match st.ust_live with
  | Some live -> List.exists (fun d -> d.deferred <> []) live.dests
  | None -> false

let take_deferred_closes st ~dst =
  match find_dest st dst with
  | Some d ->
      let closes = d.deferred in
      d.deferred <- [];
      List.rev closes
  | None -> []

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
