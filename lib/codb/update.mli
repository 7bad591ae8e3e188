(** The distributed global update algorithm (paper Section 3,
    [Franconi et al. 2004]).

    A global update materialises, at every node, all the data its
    acquaintances can contribute through the coordination rules,
    taking transitive (and possibly cyclic) dependencies between
    incoming and outgoing links into account.  After it terminates,
    local queries can be answered locally.

    Protocol summary, per node:

    - on first contact with an update id (request {e or} data — the
      request flood and the data stream race benignly): flood the
      request to every acquaintance, evaluate every incoming link whose
      importer is not this node's engagement parent on local data and
      stream the results to its importer, and close immediately the
      incoming links that depend on no outgoing link;
    - on data arriving through an outgoing link [O]: suppress
      duplicates (null-aware), instantiate fresh marked nulls for
      holes, insert; then recompute every incoming link dependent on
      [O] semi-naively on the delta, subtract the per-link sent cache
      and stream the remainder — except the links to the engagement
      parent, for which the store is the buffer;
    - close an incoming link (and notify its importer) when every
      outgoing link relevant for it is closed; a node is closed when
      all its outgoing links are;
    - a link to the engagement parent is served once, semi-naively from
      its mark up to the store, when it closes or the node disengages:
      its rows, every close the node owes the parent and, at
      disengagement, its acknowledgement leave as one [Update_batch]
      (in a global update; a scoped one streams every link);
    - cyclic dependency components cannot close that way; global
      quiescence is detected with Dijkstra–Scholten diffusing
      computation termination (a node holds the acknowledgement of
      the message that engaged it until its own deficit reaches zero;
      every other message is acknowledged, except those to the
      sender's engagement parent, and the last message to the parent
      carries the acknowledgement), upon which the initiator floods
      [Update_terminated], closing all remaining links;
    - a node that closed every link, and whose other acquaintances all
      reported the same of their own subtrees, says so in the message
      that carries its acknowledgement ([subtree_done]) and terminates
      there; the terminated flood skips every such subtree.

    A locally inconsistent node (violated denial constraint) keeps
    routing and importing but never exports data — the paper's
    principle (d): local inconsistency does not propagate. *)

module Peer_id = Codb_net.Peer_id

val initiate : Runtime.t -> Ids.update_id -> unit
(** Start a global update at this node.  @raise Invalid_argument if
    the id was already used here. *)

val initiate_scoped : Runtime.t -> Ids.update_id -> rels:string list -> unit
(** Start a {e query-dependent} update: materialise, at this node,
    only the data reachable through coordination rules transitively
    relevant to the given local relations (typically the body
    relations of a query about to be asked).  Requests travel
    importer-to-source along exactly the relevant links; everything
    else — duplicate suppression, marked nulls, link closing,
    termination detection — behaves as in the global algorithm.
    Unlike query-time answering, the fetched data {e is} stored in the
    local databases along the way, and the propagation is not limited
    to simple paths, so cyclic rule systems reach their fix-point. *)

val handle : Runtime.t -> src:Peer_id.t -> bytes:int -> Payload.t -> unit
(** Process one update-protocol message ([Update_*] payloads only;
    others are ignored).  [bytes] is the wire size of the envelope,
    recorded by the statistics module. *)
