(* Per-link dictionary registry: one Codec.Dict sender per *directed*
   (src, dst) pair.  The two directions of a link desync independently
   (each sender owns its id space), so they are separate entries, and
   an epoch bump on a link always hits both.

   The registry is deliberately dumb about liveness: dictionaries are
   created on first use and bumped, never removed — a link that flaps a
   hundred times is a hundred epochs on the same entry, which is
   exactly what the stats should show. *)

type t = {
  senders : (Peer_id.t * Peer_id.t, Codec.Dict.sender) Hashtbl.t;
  mutable bumps : int;
}

type stats = {
  links : int;  (* directed links that carried any message *)
  bumps : int;  (* epoch bumps across all links *)
  intros : int;  (* string literals shipped (introductions) *)
  hits : int;  (* strings shipped as back-references *)
  entries : int;  (* live table entries across current epochs *)
}

let create () = { senders = Hashtbl.create 64; bumps = 0 }

let sender t ~src ~dst =
  let key = (src, dst) in
  match Hashtbl.find_opt t.senders key with
  | Some d -> d
  | None ->
      let d = Codec.Dict.sender () in
      Hashtbl.add t.senders key d;
      d

let bump_dir t ~src ~dst =
  match Hashtbl.find_opt t.senders (src, dst) with
  | Some d ->
      Codec.Dict.bump d;
      t.bumps <- t.bumps + 1
  | None -> ()  (* nothing accumulated, nothing to distrust *)

(* Any event that breaks one direction breaks the other (pipe close,
   crash, flap), so bumps are always symmetric. *)
let bump_link t a b =
  bump_dir t ~src:a ~dst:b;
  bump_dir t ~src:b ~dst:a

let stats t =
  Hashtbl.fold
    (fun _ d acc ->
      {
        acc with
        links = acc.links + 1;
        intros = acc.intros + Codec.Dict.intros d;
        hits = acc.hits + Codec.Dict.hits d;
        entries = acc.entries + Codec.Dict.entries d;
      })
    t.senders
    { links = 0; bumps = t.bumps; intros = 0; hits = 0; entries = 0 }

let pp_stats ppf s =
  Fmt.pf ppf
    "link dicts: %d directed links, %d epoch bumps, %d introductions, %d \
     back-references, %d live entries"
    s.links s.bumps s.intros s.hits s.entries
