(** Per-node state of the query-answering diffusion.

    Each incoming [Query_request] spawns one {e instance}: a
    query-scoped overlay copy of the node's shared relations into
    which data fetched from acquaintances is integrated, plus the
    bookkeeping needed to stream new results upstream and to signal
    completion.  The node that posed the query runs a {e root}
    instance whose overlay is finally evaluated against the user
    query.  Instances are identified by the request reference chosen
    by the requester, so concurrent instances of the same query along
    different propagation paths never interfere (the paper's query
    labels guarantee the paths are simple, hence finitely many). *)

module Peer_id = Codb_net.Peer_id
module Row = Codb_relalg.Row
module Database = Codb_relalg.Database

type pending = {
  p_ref : string;  (** reference of the sub-request *)
  p_rule : string;  (** our outgoing link it executes *)
  mutable p_done : bool;
  mutable p_failed : bool;
      (** declared lost: the transport gave up on the request, or the
          failure deadline passed with no sign of life *)
  mutable p_touched : bool;
      (** data arrived since the deadline was last armed; the
          sub-request watchdog re-arms instead of expiring (deep
          sub-trees legitimately outlive one deadline window) *)
}

type kind =
  | Root of {
      query : Codb_cq.Query.t;
      mutable result : Row.t list option;
          (** set on completion: the answers, packed, in
              {!Codb_relalg.Row.compare} order *)
      on_answer : (Row.t list -> unit) option;
          (** streaming callback: called with each batch of new
              answers as results arrive (the UI's "browse streaming
              results") *)
    }
  | Responder of {
      requester : Peer_id.t;
      in_rule : string;  (** the incoming link we serve *)
      constraints : Codb_cq.Specialize.t;
          (** relevance bound the requester pushed down; applied to
              every outgoing tuple and re-specialized into our own
              fan-out *)
    }

type t = {
  qst_query : Ids.query_id;
  qst_ref : string;  (** our own instance reference *)
  qst_kind : kind;
  mutable qst_overlay : Database.t;
      (** emptied by {!close}: a closed instance never reads it again *)
  mutable qst_pending : pending list;
  qst_sent : Sent_filter.t;
      (** the packed rows already derived from the rule (a responder)
          or reported to [on_answer] (a root): every evaluation of the
          instance projects into it *)
  mutable qst_rule : Codb_cq.Eval.prepared option;
      (** the rule the instance evaluates on each arrival (the root's
          query, or a responder's effective rule), prepared to project
          into [qst_sent]; dropped by {!close} *)
  mutable qst_closed : bool;
  mutable qst_complete : bool;
      (** no sub-request failed below us (transitively); a responder
          forwards this in [Query_done], the root records it on the
          query outcome *)
  mutable qst_unacked : int;
      (** responder: [Query_data] messages whose transport fate is
          unknown; completion waits for zero so [Query_done] cannot
          claim completeness while data may still be lost *)
  mutable qst_held : Row.t list;
      (** responder: rows derived once every sub-request was done,
          waiting to ride the [Query_done] (which, under the reliable
          transport, waits for [qst_unacked] to reach zero) *)
}

val create :
  query_id:Ids.query_id -> ref_:string -> kind:kind -> overlay:Database.t -> t

val add_pending : t -> ref_:string -> rule:string -> unit

val find_pending : t -> string -> pending option

val mark_done : t -> ref_:string -> unit

val mark_failed : t -> ref_:string -> bool
(** Mark a sub-request failed; [true] iff it was neither done nor
    already failed (the caller reacts only the first time). *)

val all_done : t -> bool
(** Every sub-request answered or failed. *)

val close : t -> unit
(** The instance is done: mark it closed and release its overlay (a
    database with no relations takes its place), its held rows and its
    prepared rule, as a terminated update releases its sent filters. *)
