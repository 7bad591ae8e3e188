module Peer_id = Codb_net.Peer_id

type pending = {
  pd_importer : Peer_id.t;
  pd_rels : string array;
  pd_rows : int array;
  pd_served : int;
}

module String_map = Map.Make (String)

(* Persistent maps: a node with no committed mark allocates nothing
   beyond the record, and a node has only a few incoming rules and
   acquaintances. *)
type t = {
  mutable committed : (Peer_id.t * int array) String_map.t;
  mutable clock : int;
  mutable cleared_at : int;
  mutable peer_cleared : int Peer_id.Map.t;
}

let create () =
  {
    committed = String_map.empty;
    clock = 0;
    cleared_at = 0;
    peer_cleared = Peer_id.Map.empty;
  }

let find t rule = Option.map snd (String_map.find_opt rule t.committed)

let serve t ~importer ~rels ~rows =
  {
    pd_importer = importer;
    pd_rels = Array.of_list rels;
    pd_rows = Array.of_list rows;
    pd_served = t.clock;
  }

let importer p = p.pd_importer

let covered p = p.pd_rows

let cover p ~rows = List.iteri (fun i n -> p.pd_rows.(i) <- n) rows

let advance p ~rel ~since ~upto =
  Array.iteri
    (fun i r -> if String.equal r rel && p.pd_rows.(i) = since then p.pd_rows.(i) <- upto)
    p.pd_rels

(* Every invalidation ticks the clock; a pending mark commits only if
   nothing that concerns it ticked after it was served. *)
let tick t =
  t.clock <- t.clock + 1;
  t.clock

let commit t ~rule p =
  let peer_cleared =
    Option.value ~default:0 (Peer_id.Map.find_opt p.pd_importer t.peer_cleared)
  in
  if p.pd_served >= t.cleared_at && p.pd_served >= peer_cleared then
    t.committed <- String_map.add rule (p.pd_importer, p.pd_rows) t.committed

let clear t =
  t.cleared_at <- tick t;
  t.committed <- String_map.empty

let clear_peer t peer =
  t.peer_cleared <- Peer_id.Map.add peer (tick t) t.peer_cleared;
  t.committed <-
    String_map.filter
      (fun _ (importer, _) -> not (Peer_id.equal importer peer))
      t.committed
