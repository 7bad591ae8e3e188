(** The message vocabulary of the coDB protocol.

    Everything the paper's nodes exchange: global-update requests,
    query results ("update data"), link-closing notifications,
    termination-detection acknowledgements, query-time requests and
    streaming results, the super-peer's rules file and statistics
    collection, and JXTA-style peer discovery. *)

module Peer_id = Codb_net.Peer_id
module Codec = Codb_net.Codec
module Row = Codb_relalg.Row
module Specialize = Codb_cq.Specialize

type batch_entry = {
  be_rule : string;  (** coordination rule the tuples belong to *)
  be_hops : int;  (** propagation-path length of the entry's rows *)
  be_rows : Row.t list;
}

type sub_entry = {
  se_sub : string;  (** subscription id the delta belongs to *)
  se_adds : Row.t list;
  se_retracts : Row.t list;
  se_tag : string;  (** provenance of the store change (see [Answer_delta]) *)
}

type update_scope =
  | Global
      (** a full global update: flooded to every acquaintance, every
          link served *)
  | For_rule of string
      (** a query-dependent update (the paper's "query-dependent
          update requests"): the sender asks the receiver to serve
          exactly this coordination rule; the receiver recursively
          requests what that rule's body needs *)

type t =
  | Update_request of { update_id : Ids.update_id; scope : update_scope }
      (** propagate an update through the network; stopped at nodes
          that have already seen [update_id] (globals) or already
          serve the rule (scoped) *)
  | Update_data of {
      update_id : Ids.update_id;
      rule_id : string;
      rows : Row.t list;
          (** head tuples, packed ({!Codb_relalg.Row}), existential
              positions as holes; shared with the sender's sent filter,
              so never mutated *)
      hops : int;  (** length of the update propagation path so far *)
      global : bool;
          (** lets a node first contacted by data (races with the
              request flood) know which protocol variant it joined *)
      no_ack : bool;
          (** the sender did not count this message towards its
              Dijkstra–Scholten deficit (it went to the sender's
              engagement parent): an engaged receiver owes no
              [Update_ack] for it *)
    }
  | Update_batch of {
      update_id : Ids.update_id;
      entries : batch_entry list;
          (** a lazy serve's rows (see [closes]), one entry per rule
              and hop count, or one eager shipment whose rows differ
              in hops; semantically equivalent to sending each entry
              as a separate [Update_data] *)
      closes : string list;
          (** rules whose link the sender closes, after these rows:
              each one as an [Update_link_closed] would *)
      global : bool;
      no_ack : bool;  (** as [Update_data]'s *)
      carries_ack : bool;
          (** the message is also the sender's disengagement
              acknowledgement: the receiver treats it as an
              [Update_ack] after integrating the rows and closing the
              links *)
      subtree_done : bool;
          (** only with [carries_ack]: the sender has closed every link
              of the update, and so has every acquaintance but the
              receiver, each reporting the same of its own subtree; the
              sender terminated itself, and the receiver's terminated
              flood skips it *)
    }
      (** everything a node owes one peer at once.  A node's message to
          its engagement parent is always one of these: the rows of its
          parent-bound links, served once, every close it holds for
          the parent and, at disengagement, its acknowledgement
          ({!Update}).  On the wire, [global], [no_ack], [carries_ack]
          and [subtree_done] share one flag byte (bits 0 to 3); a set
          bit outside those, or [subtree_done] without [carries_ack],
          decodes as malformed. *)
  | Update_link_closed of {
      update_id : Ids.update_id;
      rule_id : string;
      global : bool;
      no_ack : bool;  (** as [Update_data]'s *)
    }
      (** the source of [rule_id] will send no more data on it; sent to
          an importer that is not the sender's engagement parent.  Its
          two flags share one byte, as do [Update_data]'s. *)
  | Update_ack of { update_id : Ids.update_id }
      (** Dijkstra–Scholten acknowledgement *)
  | Update_terminated of { update_id : Ids.update_id }
      (** flooded by the initiator once global quiescence is detected;
          closes the links of cyclic components *)
  | Query_request of {
      query_id : Ids.query_id;
      request_ref : string;  (** unique handle echoed by the responses *)
      rule_id : string;  (** the requester's outgoing link to execute *)
      label : Peer_id.t list;  (** nodes already on the path *)
      constraints : Specialize.t;
          (** relevance bound pushed down from the requester: the
              responder may drop head tuples that cannot match, and
              folds the constraint into its own evaluation and
              fan-out ({!Codb_cq.Specialize}); [Any] when pushdown is
              off *)
    }
  | Query_data of {
      query_id : Ids.query_id;
      request_ref : string;
      rule_id : string;
      rows : Row.t list;  (** packed, like [Update_data]'s *)
    }
  | Query_done of {
      query_id : Ids.query_id;
      request_ref : string;
      rule_id : string;
      complete : bool;
          (** [false] when the responder's sub-tree lost children or
              data to faults: the answers upstream are a lower bound *)
      rows : Row.t list;
          (** the stream's last rows, packed like [Query_data]'s: a
              responder whose sub-requests are all done sends what it
              still holds here instead of in a [Query_data] of its
              own.  The completeness byte says whether rows follow, so
              [[]] encodes to the bytes a done always had; the rows run
              to the frame's end, uncounted, so a done with rows is no
              longer than the [Query_data] it replaces *)
    }
  | Rules_file of { version : int; text : string }
      (** the super-peer's broadcast coordination-rules file *)
  | Start_update
      (** super-peer control: begin a global update at the receiver *)
  | Stats_request
  | Stats_response of { stats : Stats.snapshot }
  | Discovery_probe of {
      probe_id : string;
      ttl : int;
      path : Peer_id.t list;  (** route back to the origin *)
    }
  | Discovery_reply of {
      probe_id : string;
      path : Peer_id.t list;  (** remaining route back *)
      peers : Peer_id.t list;
    }
  | Seq of { seq : int; inner : t }
      (** reliable-transport frame ({!Reliable}): [seq] is unique per
          sender, the receiver acknowledges and deduplicates *)
  | Seq_ack of { seq : int }
      (** transport acknowledgement; raw (never itself sequenced or
          retried — the sender's retransmission covers a lost ack) *)
  | Sub_register of {
      sub_id : string;
      query_text : string;
          (** the standing query in concrete syntax
              ({!Codb_cq.Pretty.query} / {!Codb_cq.Parser}); re-sent
              verbatim when a subscriber re-arms after the host
              restarts *)
    }
  | Sub_registered of { sub_id : string; accepted : bool; reason : string }
      (** host's verdict; [reason] is non-empty exactly when refused
          (parse failure, malformed query, {!Node.max_subscriptions}) *)
  | Sub_unregister of { sub_id : string }
  | Answer_delta of {
      sub_id : string;
      adds : Row.t list;  (** packed, like [Update_data]'s *)
      retracts : Row.t list;
      tag : string;
          (** lineage-derived provenance: which update/rule/hop (or
              local write, seed, re-arm snapshot) produced the store
              change this answer delta reflects *)
    }
  | Answer_batch of { entries : sub_entry list }
      (** deltas for several subscriptions of one subscriber in one
          message.  Unsent: a host pushes each delta at once as an
          [Answer_delta].  The kind and its codec stay only because the
          end-to-end harness names it; deleting both waits for the
          harness change (ROADMAP item 7) *)

val encode : ?link:Codec.Dict.sender -> t -> string
(** Compact binary encoding: tag byte, varint-prefixed fields, zigzag
    integers, strings through a {!Codec.Dict} dictionary.  Without [link]
    the strings go against a fresh dictionary, so the bytes are
    self-contained.  With [link], the message becomes a link frame: a
    varint epoch stamp followed by the body against the link's
    dictionary, so strings the link has already carried this epoch
    ship as back-references.
    Encoding trains the sender dictionary.  Raises [Invalid_argument]
    on [Stats_response], whose snapshot record never crosses the
    measured wire path. *)

val decode : ?link:Codec.Dict.receiver -> string -> (t, string) result
(** Inverse of {!encode}; [Error] on truncated or corrupt input.
    [link] must be given exactly when the bytes are a link frame: the
    epoch stamp selects the decode table ({!Codec.Dict.table_for}), and
    a back-reference the receiver never saw introduced fails as
    [Error] — never a wrong string. *)

val encoded_size : ?link:Codec.Dict.sender -> t -> int
(** Actual encoded byte count, [String.length (encode ?link p)],
    counted rather than built: the encoder runs over a
    {!Codec.counter}, so [link] trains exactly as {!encode} would
    train it.  The one exception is [Stats_response], which is never
    encoded: it counts one tag byte plus {!Stats.snapshot_size_bytes},
    with or without [link], and leaves the link dictionary
    untouched. *)

val put_rows : Codec.writer -> Row.t list -> unit
(** The one tuple codec, shared with the durability layer
    ({!Durable}): WAL records and snapshots write rows with the wire's
    bytes.  A list is its length, then each row: its arity, then each
    cell through its canonical value; nothing is boxed. *)

val get_rows : Codec.reader -> Row.t list
(** Inverse of {!put_rows}.  @raise Codec.Malformed on corrupt
    input. *)

val get_peer : Codec.reader -> Peer_id.t
(** A dictionary string read as a peer name.
    @raise Codec.Malformed on an empty name, which
    {!Peer_id.of_string} would reject with [Invalid_argument]. *)

val is_update_protocol : t -> bool
(** Messages that take part in Dijkstra–Scholten termination
    accounting (requests, data, link-closed — not acks, not the
    terminated flood).  A [Seq] frame classifies as its payload. *)

val parallel_safe : t -> bool
(** Could handling this payload run concurrently with other same-time
    deliveries to other nodes?  [true] only for node-local handlers
    that mint no value identities: data and protocol-bookkeeping
    messages whose tuples carry no holes (hole instantiation draws
    from the global null counter).  Control traffic — rules
    installation, discovery, subscription registration, stats —
    answers [false].  The simulator itself is sequential; the
    end-to-end benchmark ([bench/e2e]) uses this classification to
    bound the speedup a parallel handler step could reach. *)

val describe : t -> string
