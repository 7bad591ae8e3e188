module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row
module Database = Codb_relalg.Database

type pending = {
  p_ref : string;
  p_rule : string;
  mutable p_done : bool;
  mutable p_failed : bool;
  mutable p_touched : bool;
}

type kind =
  | Root of {
      query : Codb_cq.Query.t;
      mutable result : Row.t list option;
      on_answer : (Row.t list -> unit) option;
    }
  | Responder of {
      requester : Peer_id.t;
      in_rule : string;
      constraints : Codb_cq.Specialize.t;
    }

type t = {
  qst_query : Ids.query_id;
  qst_ref : string;
  qst_kind : kind;
  mutable qst_overlay : Database.t;
  mutable qst_pending : pending list;
  qst_sent : Sent_filter.t;
  mutable qst_rule : Codb_cq.Eval.prepared option;
  mutable qst_closed : bool;
  mutable qst_complete : bool;
  mutable qst_unacked : int;
  mutable qst_held : Row.t list;
}

let create ~query_id ~ref_ ~kind ~overlay =
  {
    qst_query = query_id;
    qst_ref = ref_;
    qst_kind = kind;
    qst_overlay = overlay;
    qst_pending = [];
    qst_sent = Sent_filter.create ~size:1 ();
    qst_rule = None;
    qst_closed = false;
    qst_complete = true;
    qst_unacked = 0;
    qst_held = [];
  }

let add_pending st ~ref_ ~rule =
  st.qst_pending <-
    { p_ref = ref_; p_rule = rule; p_done = false; p_failed = false; p_touched = false }
    :: st.qst_pending

let find_pending st ref_ =
  List.find_opt (fun p -> String.equal p.p_ref ref_) st.qst_pending

let mark_done st ~ref_ =
  List.iter (fun p -> if String.equal p.p_ref ref_ then p.p_done <- true) st.qst_pending

let mark_failed st ~ref_ =
  match find_pending st ref_ with
  | Some p when (not p.p_done) && not p.p_failed ->
      p.p_failed <- true;
      true
  | Some _ | None -> false

let all_done st = List.for_all (fun p -> p.p_done || p.p_failed) st.qst_pending

(* holds no relation, so nothing can be inserted into it *)
let released = Database.create []

let close st =
  st.qst_closed <- true;
  st.qst_held <- [];
  st.qst_overlay <- released;
  st.qst_rule <- None
