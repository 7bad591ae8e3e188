module Peer_id = Codb_net.Peer_id

type owner =
  | Local of (Subscription.delta -> unit) option
  | Remote of Peer_id.t

type entry = { e_sub : Subscription.t; e_owner : owner }

type t = { limit : int; tbl : (string, entry) Hashtbl.t }

let create ~limit = { limit; tbl = Hashtbl.create 8 }

let find t sub_id = Hashtbl.find_opt t.tbl sub_id

let register t sub owner =
  let sub_id = Subscription.id sub in
  if Hashtbl.mem t.tbl sub_id then
    Error (Printf.sprintf "duplicate subscription id %s" sub_id)
  else if Hashtbl.length t.tbl >= t.limit then
    Error
      (Printf.sprintf "subscription limit reached (max_subscriptions=%d)"
         t.limit)
  else begin
    Hashtbl.replace t.tbl sub_id { e_sub = sub; e_owner = owner };
    Ok ()
  end

let unregister t sub_id =
  if Hashtbl.mem t.tbl sub_id then begin
    Hashtbl.remove t.tbl sub_id;
    true
  end
  else false

(* All iteration is in sub_id order so delta fan-out and re-arms are deterministic regardless of hash-table internals. *)
let sorted t =
  let all = Hashtbl.fold (fun id e acc -> (id, e) :: acc) t.tbl [] in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let entries t = List.map snd (sorted t)

let affected t ~rel =
  List.filter (fun e -> Subscription.reads e.e_sub rel) (entries t)

let clear t =
  let n = Hashtbl.length t.tbl in
  Hashtbl.reset t.tbl;
  n
