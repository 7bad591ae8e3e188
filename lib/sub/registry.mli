(** The subscriptions a node hosts, keyed by subscription id.

    Bounded by [limit] (a node hosts {!Codb_core.Node.max_subscriptions});
    registration past the limit (or with a duplicate id) is refused,
    never silently dropped.
    Iteration order is always sub_id order so that delta fan-out and
    crash re-arm are deterministic. *)

module Peer_id = Codb_net.Peer_id

type owner =
  | Local of (Subscription.delta -> unit) option
      (** registered by this node's own client; deltas go to the
          callback *)
  | Remote of Peer_id.t
      (** registered over the wire; deltas are pushed to the
          subscriber peer *)

type entry = { e_sub : Subscription.t; e_owner : owner }

type t

val create : limit:int -> t

val find : t -> string -> entry option

val register : t -> Subscription.t -> owner -> (unit, string) result
(** [Error] on duplicate id or when the limit is reached. *)

val unregister : t -> string -> bool
(** [true] when the id was present. *)

val entries : t -> entry list
(** In sub_id order. *)

val affected : t -> rel:string -> entry list
(** Hosted subscriptions whose query body reads [rel], in sub_id
    order. *)

val clear : t -> int
(** Drop everything (crash teardown); returns how many were
    dropped. *)
