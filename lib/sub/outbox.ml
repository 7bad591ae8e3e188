module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row

type pending = {
  mutable p_adds : Row.Set.t;
  mutable p_retracts : Row.Set.t;
  mutable p_tag : string;
}

type buf = { entries : (string, pending) Hashtbl.t; mutable scheduled : bool }

type t = (Peer_id.t, buf) Hashtbl.t

let create () : t = Hashtbl.create 4

let buf_for (t : t) dst =
  match Hashtbl.find_opt t dst with
  | Some b -> b
  | None ->
      let b = { entries = Hashtbl.create 4; scheduled = false } in
      Hashtbl.replace t dst b;
      b

(* An add cancels a pending retract of the same answer (and vice
   versa); a duplicate is absorbed.  Either way the row never
   reaches the wire — that is the coalescing the window buys. *)
let add (t : t) ~dst ~sub_id (d : Subscription.delta) =
  let b = buf_for t dst in
  let p =
    match Hashtbl.find_opt b.entries sub_id with
    | Some p -> p
    | None ->
        let p =
          { p_adds = Row.Set.empty; p_retracts = Row.Set.empty; p_tag = "" }
        in
        Hashtbl.replace b.entries sub_id p;
        p
  in
  let coalesced = ref 0 in
  List.iter
    (fun row ->
      if Row.Set.mem row p.p_retracts then begin
        p.p_retracts <- Row.Set.remove row p.p_retracts;
        incr coalesced
      end
      else if Row.Set.mem row p.p_adds then incr coalesced
      else p.p_adds <- Row.Set.add row p.p_adds)
    d.Subscription.d_adds;
  List.iter
    (fun row ->
      if Row.Set.mem row p.p_adds then begin
        p.p_adds <- Row.Set.remove row p.p_adds;
        incr coalesced
      end
      else if Row.Set.mem row p.p_retracts then incr coalesced
      else p.p_retracts <- Row.Set.add row p.p_retracts)
    d.Subscription.d_retracts;
  p.p_tag <- (if p.p_tag = "" then d.Subscription.d_tag else "coalesced");
  !coalesced

let scheduled (t : t) ~dst =
  match Hashtbl.find_opt t dst with Some b -> b.scheduled | None -> false

let set_scheduled (t : t) ~dst v = (buf_for t dst).scheduled <- v

let take (t : t) ~dst =
  match Hashtbl.find_opt t dst with
  | None -> []
  | Some b ->
      let all =
        Hashtbl.fold
          (fun sub_id p acc ->
            let d =
              {
                Subscription.d_adds = Row.Set.elements p.p_adds;
                d_retracts = Row.Set.elements p.p_retracts;
                d_tag = p.p_tag;
              }
            in
            if Subscription.delta_is_empty d then acc
            else (sub_id, d) :: acc)
          b.entries []
      in
      Hashtbl.reset b.entries;
      List.sort (fun (a, _) (b, _) -> String.compare a b) all

let clear (t : t) = Hashtbl.reset t
