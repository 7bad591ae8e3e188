(** Query-time answering (paper Sections 1 and 3).

    A node queried in its own schema fetches the relevant data from
    its neighbours at query time: the query request diffuses through
    the outgoing links whose heads mention relations of the query,
    each request labelled with the sequence of node ids it passed
    through, and never forwarded to a node already on the label — so
    requests travel exactly the simple paths out of the query node.
    Results stream back hop by hop: each intermediate node integrates
    incoming tuples into a {e query-scoped overlay} (its Local
    Database is not modified — materialisation is the update
    algorithm's job), re-evaluates the served rule semi-naively, and
    forwards only what it has not sent before.  Completion is signalled
    bottom-up with [Query_done] messages, and a responder's last rows
    ride its [Query_done]: rows derived while a sub-request is pending
    stream at once as [Query_data], and those derived once every
    sub-request is done wait for the done (under the reliable
    transport, until the earlier data has settled).

    On networks whose rule-dependency graph is acyclic this computes
    the same certain answers as querying after a global update — a
    property the test suite checks; on cyclic networks the simple-path
    restriction may miss data that only a fix-point provides, which is
    exactly why the paper has the update algorithm. *)

module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row

val start :
  ?on_answer:(Row.t list -> unit) ->
  Runtime.t ->
  Ids.query_id ->
  Codb_cq.Query.t ->
  string
(** Pose a user query at this node; returns the root instance
    reference to pass to {!result} once the network is quiescent.
    [on_answer] streams each batch of new answers as it becomes
    derivable — first from local data, then as remote results arrive
    (the paper UI's "browse streaming results").
    @raise Invalid_argument if the query is ill-formed (existential
    head, unsafe comparison) or mentions relations outside the node's
    schema. *)

val handle : Runtime.t -> src:Peer_id.t -> bytes:int -> Payload.t -> unit
(** Process one [Query_*] message; others are ignored. *)

val result : Node.t -> string -> Row.t list option
(** The answers of a completed root instance, packed, in
    {!Row.compare} order ([None] while the diffusion is still
    running). *)
