module Peer_id = Codb_net.Peer_id

type entry = {
  e_dst : Peer_id.t;
  e_payload : Payload.t;  (* the wrapped [Seq] frame, resent verbatim *)
  mutable e_attempts : int;
  mutable e_settled : bool;
  e_on_settled : (ok:bool -> unit) option;
}

type t = {
  mutable next_seq : int;
  inflight : (int, entry) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
}

let create ?(next_seq = 0) ?(seen = []) () =
  let t = { next_seq; inflight = Hashtbl.create 16; seen = Hashtbl.create 64 } in
  List.iter (fun key -> Hashtbl.replace t.seen key ()) seen;
  t

let next_seq t = t.next_seq

let seen_keys t =
  List.sort String.compare (Hashtbl.fold (fun k () acc -> k :: acc) t.seen [])

let fresh_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let register t ~seq entry = Hashtbl.replace t.inflight seq entry

let find t seq = Hashtbl.find_opt t.inflight seq

let settle t seq =
  match Hashtbl.find_opt t.inflight seq with
  | Some entry when not entry.e_settled ->
      entry.e_settled <- true;
      Hashtbl.remove t.inflight seq;
      Some entry
  | Some _ | None -> None

let seen_key ~src ~seq = Peer_id.to_string src ^ "#" ^ string_of_int seq

let seen t ~src ~seq = Hashtbl.mem t.seen (seen_key ~src ~seq)

let mark_seen t ~src ~seq =
  let key = seen_key ~src ~seq in
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.add t.seen key ();
    true
  end

let abandon t =
  Hashtbl.iter (fun _ entry -> entry.e_settled <- true) t.inflight;
  Hashtbl.reset t.inflight
