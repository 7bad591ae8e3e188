(* Binary primitives shared by every wire payload and every WAL
   record.  Strings go through a dictionary: the first time a string is
   written it is introduced literally, and later occurrences become a
   varint id.  Update floods repeat rule ids, null provenance tags and
   skewed data values constantly, so the dictionary is where most of
   the wire savings come from.

   The dictionary is incremental and persists across messages on one
   directed link (or one WAL stream, or one snapshot).  Introductions
   carry an explicit id next to the literal, so a receiver that misses
   a message can never misattribute a later back-reference — a
   dangling id fails as [Malformed], a wrong string is impossible by
   construction.  Epoch bumps (crash, restart, link flap) reset both
   sides deterministically.  A self-contained message is the same
   format against a fresh dictionary. *)

module Dict = struct
  type sender = {
    mutable s_epoch : int;
    s_tab : (string, int) Hashtbl.t;
    mutable s_next : int;
    mutable s_intros : int;
    mutable s_hits : int;
  }

  type receiver = {
    mutable r_epoch : int;
    r_tab : (int, string) Hashtbl.t;
  }

  let sender ?(size = 64) () =
    { s_epoch = 0; s_tab = Hashtbl.create size; s_next = 0; s_intros = 0; s_hits = 0 }

  let receiver () = { r_epoch = 0; r_tab = Hashtbl.create 64 }

  let bump s =
    s.s_epoch <- s.s_epoch + 1;
    Hashtbl.reset s.s_tab;
    s.s_next <- 0

  let epoch s = s.s_epoch
  let entries s = s.s_next
  let intros s = s.s_intros
  let hits s = s.s_hits

  (* The table a message stamped [epoch] decodes against.  A newer
     epoch adopts and resets (the sender reset on bump, so nothing we
     remember can be referenced again); the current epoch keeps the
     accumulated table; a stale epoch gets a throwaway empty table, so
     its back-references fail [Malformed] while literals still decode. *)
  let table_for rc ~epoch =
    if epoch > rc.r_epoch then begin
      rc.r_epoch <- epoch;
      Hashtbl.reset rc.r_tab;
      rc.r_tab
    end
    else if epoch = rc.r_epoch then rc.r_tab
    else Hashtbl.create 4
end

(* A writer either appends to its buffer or, [counting], only adds up
   the bytes it would have appended: {!Payload.encoded_size} sizes a
   message by running the encoder over a counting writer, so the link
   dictionary trains exactly as the real encoding would and no string
   is built. *)
type writer = {
  buf : Buffer.t;
  counting : bool;
  mutable counted : int;
  dict : Dict.sender;
}

let writer ?(initial = 256) ?(dict = Dict.sender ~size:16 ()) () =
  { buf = Buffer.create initial; counting = false; counted = 0; dict }

(* never written: a counting writer appends nothing *)
let no_buffer = Buffer.create 1

let counter ?(dict = Dict.sender ~size:16 ()) () =
  { buf = no_buffer; counting = true; counted = 0; dict }

let byte w n =
  if w.counting then w.counted <- w.counted + 1
  else Buffer.add_char w.buf (Char.unsafe_chr (n land 0xff))

let rec varint_size n acc =
  if n land lnot 0x7f = 0 then acc else varint_size (n lsr 7) (acc + 1)

let rec put_varint w n =
  if n land lnot 0x7f = 0 then byte w n
  else begin
    byte w (0x80 lor (n land 0x7f));
    put_varint w (n lsr 7)
  end

let varint w n =
  if w.counting then w.counted <- w.counted + varint_size n 1 else put_varint w n

let zigzag w n = varint w ((n lsl 1) lxor (n asr (Sys.int_size - 1)))

let float64 w f =
  if w.counting then w.counted <- w.counted + 8
  else begin
    let bits = Int64.bits_of_float f in
    for i = 0 to 7 do
      byte w (Int64.to_int (Int64.shift_right_logical bits (8 * i)))
    done
  end

let add_bytes w s =
  if w.counting then w.counted <- w.counted + String.length s
  else Buffer.add_string w.buf s

let raw_string w s =
  varint w (String.length s);
  add_bytes w s

let string w s =
  let d = w.dict in
  (* [find], not [find_opt]: a hit, the common case, allocates nothing;
     a miss is the [Not_found] branch, so nothing escapes *)
  match Hashtbl.find d.Dict.s_tab s with
  | id ->
      d.Dict.s_hits <- d.Dict.s_hits + 1;
      varint w ((id lsl 1) lor 1)
  | exception Not_found ->
      let id = d.Dict.s_next in
      Hashtbl.add d.Dict.s_tab s id;
      d.Dict.s_next <- id + 1;
      d.Dict.s_intros <- d.Dict.s_intros + 1;
      varint w (id lsl 1);
      raw_string w s

let contents w =
  if w.counting then invalid_arg "Codec.contents: a counting writer holds no bytes";
  Buffer.contents w.buf

let size w = if w.counting then w.counted else Buffer.length w.buf

type reader = { src : string; mutable pos : int; table : (int, string) Hashtbl.t }

exception Malformed of string

let reader ?(table = Hashtbl.create 16) src = { src; pos = 0; table }

let read_byte r =
  if r.pos >= String.length r.src then raise (Malformed "truncated byte");
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let read_varint r =
  let rec go shift acc =
    if shift > Sys.int_size then raise (Malformed "varint too long");
    let b = read_byte r in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_zigzag r =
  let n = read_varint r in
  (n lsr 1) lxor (-(n land 1))

let read_float64 r =
  let bits = ref 0L in
  for i = 0 to 7 do
    bits := Int64.logor !bits (Int64.shift_left (Int64.of_int (read_byte r)) (8 * i))
  done;
  Int64.float_of_bits !bits

let read_raw_string r =
  let len = read_varint r in
  if len < 0 || r.pos + len > String.length r.src then
    raise (Malformed "truncated string");
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let read_string r =
  let n = read_varint r in
  let id = n lsr 1 in
  if n land 1 = 0 then begin
    let s = read_raw_string r in
    (* replace: a retransmitted introduction is idempotent (the sender
       never reuses an id for a different string within an epoch) *)
    Hashtbl.replace r.table id s;
    s
  end
  else
    match Hashtbl.find_opt r.table id with
    | Some s -> s
    | None -> raise (Malformed "dangling link dictionary reference")

let at_end r = r.pos >= String.length r.src

let remaining r = String.length r.src - r.pos

(* Element counts read off the wire bound allocations
   ([Array.init]/[List.init] at the payload layer), so a bit-flipped
   count must fail as [Malformed], not as a multi-gigabyte allocation
   attempt.  Every encoded element costs at least one byte, so any
   honest count is bounded by the bytes left in the message. *)
let read_count r =
  let n = read_varint r in
  if n < 0 || n > remaining r then raise (Malformed "implausible count");
  n
