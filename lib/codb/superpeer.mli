(** The super-peer (paper, Section 4).

    A peer with extra control-plane functionality: it reads the
    coordination rules for all peers from a file and broadcasts it to
    the network (letting it change the topology at runtime), triggers
    global updates, and collects every node's statistical information
    into a final report.

    The super-peer keeps a control pipe to every node; those pipes are
    not coordination-rule pipes and never carry data traffic. *)

module Peer_id = Codb_net.Peer_id
module Network = Codb_net.Network

type t

val peer_name : string
(** ["superpeer"] — reserved; regular nodes must not use it. *)

val create : net:Payload.t Network.t -> peers:Peer_id.t list -> t
(** Register the super-peer on the network and open control pipes to
    the given peers. *)

val id : t -> Peer_id.t

val track : t -> Peer_id.t -> unit
(** Open a control pipe to a node added after creation. *)

val broadcast_rules : t -> Codb_cq.Config.t -> int
(** Pretty-print the configuration and broadcast it as a rules file to
    every tracked peer; returns the new version number.  Takes effect
    once the simulation runs. *)

val trigger_update : t -> at:Peer_id.t -> unit
(** Ask a node to start a global update. *)

val request_stats : t -> unit
(** Clear previously collected snapshots and poll every tracked
    peer. *)

val collected : t -> Stats.snapshot list
(** Snapshots received so far, sorted by node. *)
