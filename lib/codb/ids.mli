(** Globally unique identifiers for updates and queries.

    The paper uses JXTA to generate unique global-update identifiers;
    here an identifier is the pair of the originating peer and a
    per-peer serial number, unique by construction. *)

module Peer_id = Codb_net.Peer_id

type update_id = { u_origin : Peer_id.t; u_serial : int }

type query_id = { q_origin : Peer_id.t; q_serial : int }

val update_id : Peer_id.t -> int -> update_id

val query_id : Peer_id.t -> int -> query_id

val equal_update : update_id -> update_id -> bool

val equal_query : query_id -> query_id -> bool

val compare_update : update_id -> update_id -> int
(** By origin, then serial ([n0#2] before [n0#10]). *)

val compare_query : query_id -> query_id -> int

val pp_update : update_id Fmt.t

val pp_query : query_id Fmt.t

val string_of_update : update_id -> string
(** [upd:<origin>#<serial>], e.g. [upd:n0#3]: the key of a durability
    snapshot's sent-filter entries, so the text never changes.  For
    printing and snapshots only; tables key by the id itself
    ({!Update_tbl}). *)

val string_of_query : query_id -> string
(** [qry:<origin>#<serial>]. *)

(** Tables keyed by the typed ids, with an equality and a hash that
    allocate nothing: the per-message lookups of {!Node} and {!Stats}
    format no string. *)

module Update_tbl : Hashtbl.S with type key = update_id

module Query_tbl : Hashtbl.S with type key = query_id
