(** The execution context handed to a node's protocol handlers.

    The Database Manager logic ({!Update}, {!Query_engine},
    {!Discovery}, {!Dbm}) is written against this record instead of
    the whole {!System}, keeping the algorithms independent of how the
    network is assembled (and trivially testable with stub
    closures). *)

module Peer_id = Codb_net.Peer_id

type t = {
  node : Node.t;
  opts : Options.t;
  send : dst:Peer_id.t -> Payload.t -> bool;
      (** enqueue a message on the pipe to [dst]; [false] when no open
          pipe exists *)
  now : unit -> float;  (** current simulated time *)
  schedule : delay:float -> (unit -> unit) -> unit;
      (** run an action [delay] simulated seconds from now (drives the
          transport's retransmissions and the stall watchdogs); stub
          runtimes in tests may run the action immediately *)
  connect : Peer_id.t -> unit;  (** create/reopen the pipe to a peer *)
  disconnect : Peer_id.t -> unit;
  neighbours : unit -> Peer_id.t list;  (** peers with an open pipe *)
}
