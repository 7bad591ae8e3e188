module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query
module Row = Codb_relalg.Row

type t = {
  mi_id : string;
  mi_host : Peer_id.t;
  mi_query : Query.t;
  mi_on_delta : (Subscription.delta -> unit) option;
  mutable mi_answers : Row.Set.t;
  mutable mi_deltas : int;
  mutable mi_accepted : bool;
  mutable mi_rejected : string option;
}

let create ~sub_id ~host ?on_delta query =
  {
    mi_id = sub_id;
    mi_host = host;
    mi_query = query;
    mi_on_delta = on_delta;
    mi_answers = Row.Set.empty;
    mi_deltas = 0;
    mi_accepted = false;
    mi_rejected = None;
  }

let id t = t.mi_id

let host t = t.mi_host

let query t = t.mi_query

let answers t = Row.Set.elements t.mi_answers

let answer_count t = Row.Set.cardinal t.mi_answers

let deltas t = t.mi_deltas

let accepted t = t.mi_accepted

let rejected t = t.mi_rejected

let mark_accepted t =
  t.mi_accepted <- true;
  t.mi_rejected <- None

let mark_rejected t reason =
  t.mi_accepted <- false;
  t.mi_rejected <- Some reason

let notify t d = match t.mi_on_delta with None -> () | Some f -> f d

(* Deltas are applied as set updates, so redelivery (a retried or
   duplicated frame) is idempotent.  Between
   registrations the host's answers only grow, so arrival order does
   not matter either: a registration snapshot resent behind later adds
   merges into the same set. *)
let apply t (d : Subscription.delta) =
  t.mi_answers <-
    List.fold_left (fun s row -> Row.Set.add row s) t.mi_answers d.d_adds;
  t.mi_answers <-
    List.fold_left (fun s row -> Row.Set.remove row s) t.mi_answers d.d_retracts;
  t.mi_deltas <- t.mi_deltas + 1;
  notify t d

(* A re-registration starts over from the empty set: a host that
   restarted without its store no longer derives some answers, and
   only what it sends from now on says which. *)
let reset t ~tag =
  let gone = Row.Set.elements t.mi_answers in
  t.mi_answers <- Row.Set.empty;
  t.mi_accepted <- false;
  if gone <> [] then
    notify t { Subscription.d_adds = []; d_retracts = gone; d_tag = tag }
