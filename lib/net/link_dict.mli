(** Registry of incremental string dictionaries, one {!Codec.Dict}
    sender per {e directed} (src, dst) link.

    The system owns one registry; {!sender} finds or creates the
    dictionary the wire codec trains while sizing messages on that
    link, and {!bump_link} starts a fresh epoch on both directions
    whenever the link state stops being trustworthy — pipe close or
    reopen, crash, restart, flap, or a send attempt on a closed pipe.
    After a bump the next messages re-introduce every string, so a
    desynced peer deterministically falls back to literals instead of
    ever resolving a reference to the wrong string. *)

type t

val create : unit -> t

val sender : t -> src:Peer_id.t -> dst:Peer_id.t -> Codec.Dict.sender
(** Find or create the dictionary for the directed link. *)

val bump_link : t -> Peer_id.t -> Peer_id.t -> unit
(** New epoch on both directions of the link.  A direction that never
    carried a message has no dictionary and is left untouched (nothing
    to distrust). *)

type stats = {
  links : int;  (** directed links that carried any message *)
  bumps : int;  (** epoch bumps across all links *)
  intros : int;  (** string literals shipped (introductions) *)
  hits : int;  (** strings shipped as back-references *)
  entries : int;  (** live table entries across current epochs *)
}

val stats : t -> stats

val pp_stats : stats Fmt.t
