(** Incremental global updates: what each incoming link provably
    shipped.

    A node keeps, per incoming rule, one row count per body relation
    (in {!Codb_cq.Query.body_relations} order).  The marks mean: every
    head derivable from the rows below them was delivered to the
    importer.  Relations are append-only, so the rows past a mark are
    exactly what the link has not covered, and the next update's first
    contact evaluates the rule semi-naively over them instead of over
    the whole store ({!Update}).  A rule with no marks is evaluated in
    full, as the paper's from-scratch update does.

    Marks are volatile and not logged: a restarted node serves its
    links from scratch once.  An update builds a {!pending} mark per
    link it serves, advances it while the link stays contiguous (or
    covers the whole store at a lazy serve), and commits it when the
    link closes.  Invalidations ({!clear},
    {!clear_peer}) drop committed marks and keep any mark served
    before them from committing. *)

module Peer_id = Codb_net.Peer_id

type t

type pending
(** One served link's mark inside one update. *)

val create : unit -> t

val find : t -> string -> int array option
(** The committed marks of an incoming rule, aligned with its body
    relations; [None] when the link must be served in full. *)

val serve :
  t -> importer:Peer_id.t -> rels:string list -> rows:int list -> pending
(** The pending mark of a link served now, from the body relations'
    cardinalities read at service time. *)

val importer : pending -> Peer_id.t

val covered : pending -> int array
(** The row counts the link is served up to, aligned with the body
    relations. *)

val cover : pending -> rows:int list -> unit
(** The link was just served up to these cardinalities: a lazy serve
    covers every row below them ({!Update}). *)

val advance : pending -> rel:string -> since:int -> upto:int -> unit
(** The link was just recomputed over [rel]'s rows [since, upto).  If
    [since] is the mark, it moves to [upto]; otherwise rows the link
    never covered lie below [since] (a local insert made during the
    update), and the mark stays so that the next update re-ships from
    there. *)

val commit : t -> rule:string -> pending -> unit
(** Make a pending mark the rule's committed one, unless {!clear}, or
    {!clear_peer} of its importer, ran after it was served.  The mark
    is taken over, not copied: the caller no longer advances it.  The
    caller checks the update-level conditions (the node may export,
    delivery is accountable). *)

val clear : t -> unit
(** Forget every mark: the store was replaced, the rules changed, or
    the node lost its volatile state. *)

val clear_peer : t -> Peer_id.t -> unit
(** Forget the marks of links that import at [peer]: the pipe between
    the two changed state, or the transport gave up on data to it, so
    what was sent may not have arrived. *)
