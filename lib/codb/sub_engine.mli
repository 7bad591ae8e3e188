(** Protocol glue for standing queries ({!Codb_sub}).

    The host side keeps each registered subscription's answer set
    current by feeding it the per-relation store deltas the update
    fix-point ({!Update.integrate_entry}) and local writes
    ({!System.insert_fact}) produce — a semi-naive join against just
    the delta, never a re-run of the query — and pushes the resulting
    answer deltas to subscribers: locally through a callback, remotely
    as one [Answer_delta] message per non-empty delta, sent at once
    through the reliable transport.

    Every function is a no-op (or an [Error]) unless
    [Options.subscriptions] installed a registry on the node, so the
    feature leaves the seed protocol bit-for-bit untouched when off. *)

module Sub = Codb_sub.Subscription
module Mirror = Codb_sub.Mirror
module Peer_id = Codb_net.Peer_id
module Query = Codb_cq.Query

val register_local :
  Runtime.t -> ?on_delta:(Sub.delta -> unit) -> Query.t ->
  (string, string) result
(** Register a standing query at this node for a local client; seeds
    the answer set from the store and delivers the seed delta to
    [on_delta].  [Error] when subscriptions are off, the query is not
    a user query, a body relation is unknown, or the registry is
    full. *)

val unregister_local : Runtime.t -> string -> bool

val subscribe_remote :
  Runtime.t -> host:Peer_id.t -> ?on_delta:(Sub.delta -> unit) -> Query.t ->
  (string, string) result
(** Subscribe to a standing query hosted at [host]: create the local
    mirror and send [Sub_register] (the query travels in concrete
    syntax).  The host answers [Sub_registered] and a seed
    [Answer_delta] with its full current answer set. *)

val unsubscribe_remote : Runtime.t -> string -> bool
(** Drop the mirror and tell the host. *)

val mirror : Runtime.t -> string -> Mirror.t option

val on_store_delta :
  Runtime.t -> rel:string -> since:int -> delta:Codb_relalg.Row.t list ->
  tag:(unit -> string) -> unit
(** The feed: the [delta] rows were just inserted into the store's
    [rel], as its rows from [since] on.  Runs the delta-evaluation
    pass for every affected hosted subscription and delivers the
    non-empty answer deltas, tagged with [tag ()] (lineage-derived
    provenance — which update, rule and hop moved the data).  The tag
    is a thunk, so the provenance string is not built when
    subscriptions are off or nothing is affected. *)

val refresh_all : Runtime.t -> tag:string -> unit
(** From-scratch diff of every hosted subscription against the store;
    used after bulk store imports, which bypass the per-tuple delta
    feed. *)

val rearm_towards : Runtime.t -> host:Peer_id.t -> unit
(** Re-send [Sub_register] for every mirror this node holds against
    [host] — called when [host] restarts, since its registry was
    volatile.  Each mirror is {!Mirror.reset} first and refilled by the
    host's full-answer snapshot, so answers the host lost in the crash
    leave it. *)

val handle : Runtime.t -> src:Peer_id.t -> Payload.t -> unit
(** Dispatch the [Sub_*] payloads and [Answer_delta]; ignores
    everything else, [Answer_batch] included (no node sends it). *)
