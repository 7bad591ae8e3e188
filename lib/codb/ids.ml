module Peer_id = Codb_net.Peer_id

type update_id = { u_origin : Peer_id.t; u_serial : int }

type query_id = { q_origin : Peer_id.t; q_serial : int }

let update_id origin serial = { u_origin = origin; u_serial = serial }

let query_id origin serial = { q_origin = origin; q_serial = serial }

let equal_update a b = Peer_id.equal a.u_origin b.u_origin && a.u_serial = b.u_serial

let equal_query a b = Peer_id.equal a.q_origin b.q_origin && a.q_serial = b.q_serial

let compare_update a b =
  match Peer_id.compare a.u_origin b.u_origin with
  | 0 -> Int.compare a.u_serial b.u_serial
  | c -> c

let compare_query a b =
  match Peer_id.compare a.q_origin b.q_origin with
  | 0 -> Int.compare a.q_serial b.q_serial
  | c -> c

(* one concatenation, no [Format] buffer.  The update text keys the
   sent filters in durability snapshots and the query text names a root
   instance, so neither may change. *)
let tagged tag origin serial =
  String.concat "" [ tag; Peer_id.to_string origin; "#"; string_of_int serial ]

let string_of_update u = tagged "upd:" u.u_origin u.u_serial

let string_of_query q = tagged "qry:" q.q_origin q.q_serial

let pp_update ppf u = Fmt.string ppf (string_of_update u)

let pp_query ppf q = Fmt.string ppf (string_of_query q)

(* [Peer_id.hash] and the arithmetic allocate nothing, so a lookup
   costs no minor words *)
let mix origin serial = ((Peer_id.hash origin * 65599) + serial) land max_int

module Update_tbl = Hashtbl.Make (struct
  type t = update_id

  let equal = equal_update

  let hash u = mix u.u_origin u.u_serial
end)

module Query_tbl = Hashtbl.Make (struct
  type t = query_id

  let equal = equal_query

  let hash q = mix q.q_origin q.q_serial
end)
