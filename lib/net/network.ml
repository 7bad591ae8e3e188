let src_log = Logs.Src.create "codb.net" ~doc:"coDB simulated network"

module Log = (val Logs.src_log src_log : Logs.LOG)

type 'a peer_entry = { mutable handler : ('a Message.t -> unit) option }

type counters = {
  delivered : int;
  dropped : int;
  total_bytes : int;
  dropped_bytes : int;
  injected_drops : int;
  injected_dups : int;
  injected_flaps : int;
  crashes : int;
  restarts : int;
}

(* Queue entries: a delivery carries its message (no closure per
   message); timers stay opaque closures. *)
type 'a event = Ev_deliver of 'a Message.t | Ev_action of (unit -> unit)

type 'a t = {
  mutable now : float;
  events : 'a event Event_queue.t;
  peer_table : (Peer_id.t, 'a peer_entry) Hashtbl.t;
  pipe_table : (Peer_id.t * Peer_id.t, Pipe.t) Hashtbl.t;
  size_of : src:Peer_id.t -> dst:Peer_id.t -> 'a -> int;
  (* Fired on every pipe open<->close transition (and on a send
     attempt against a closed pipe) with the two endpoints: link-level
     codec state upstream must not trust the link across these. *)
  mutable link_watcher : (Peer_id.t -> Peer_id.t -> unit) option;
  default_latency : float;
  default_byte_cost : float;
  mutable msg_seq : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable total_bytes : int;
  mutable dropped_bytes : int;
  mutable fault : Fault.t option;
}

let create ?(default_latency = 0.001) ?(default_byte_cost = 0.000001) ~size_of () =
  {
    now = 0.0;
    events = Event_queue.create ();
    peer_table = Hashtbl.create 32;
    pipe_table = Hashtbl.create 64;
    size_of;
    link_watcher = None;
    default_latency;
    default_byte_cost;
    msg_seq = 0;
    delivered = 0;
    dropped = 0;
    total_bytes = 0;
    dropped_bytes = 0;
    fault = None;
  }

let pipe_key a b = if Peer_id.compare a b <= 0 then (a, b) else (b, a)

let set_link_watcher net f = net.link_watcher <- Some f

let notify_link net a b =
  match net.link_watcher with Some f -> f a b | None -> ()

(* Close/reopen wrappers that fire the watcher only on an actual
   transition, so idempotent re-closes stay silent. *)
let close_pipe net pipe =
  if Pipe.is_open pipe then begin
    Pipe.close pipe;
    let a, b = Pipe.endpoints pipe in
    notify_link net a b
  end

let reopen_pipe net pipe =
  if not (Pipe.is_open pipe) then begin
    Pipe.reopen pipe;
    let a, b = Pipe.endpoints pipe in
    notify_link net a b
  end

let add_peer net id =
  if not (Hashtbl.mem net.peer_table id) then begin
    Hashtbl.add net.peer_table id { handler = None }
  end

let has_peer net id = Hashtbl.mem net.peer_table id

let pipe_between net a b = Hashtbl.find_opt net.pipe_table (pipe_key a b)

let remove_peer net id =
  Hashtbl.remove net.peer_table id;
  let close_touching key pipe =
    let x, y = key in
    if Peer_id.equal x id || Peer_id.equal y id then close_pipe net pipe
  in
  Hashtbl.iter close_touching net.pipe_table

let set_handler net id handler =
  match Hashtbl.find_opt net.peer_table id with
  | Some entry -> entry.handler <- Some handler
  | None ->
      invalid_arg
        (Printf.sprintf "Network.set_handler: unknown peer %s" (Peer_id.to_string id))

(* A crashed peer: it stays in the peer table (its pipes can reopen on
   restart) but messages reaching it meanwhile drop at delivery. *)
let clear_handler net id =
  match Hashtbl.find_opt net.peer_table id with
  | Some entry -> entry.handler <- None
  | None -> ()

let connect ?latency ?byte_cost net a b =
  if not (has_peer net a && has_peer net b) then
    invalid_arg "Network.connect: both peers must exist";
  let key = pipe_key a b in
  match Hashtbl.find_opt net.pipe_table key with
  | Some pipe -> reopen_pipe net pipe
  | None ->
      let latency = Option.value ~default:net.default_latency latency in
      let byte_cost = Option.value ~default:net.default_byte_cost byte_cost in
      Hashtbl.add net.pipe_table key (Pipe.create a b ~latency ~byte_cost)

let disconnect net a b =
  match pipe_between net a b with Some pipe -> close_pipe net pipe | None -> ()

let connected net a b =
  match pipe_between net a b with Some pipe -> Pipe.is_open pipe | None -> false

let neighbours net id =
  let collect (x, y) pipe acc =
    if not (Pipe.is_open pipe) then acc
    else if Peer_id.equal x id then y :: acc
    else if Peer_id.equal y id then x :: acc
    else acc
  in
  List.sort Peer_id.compare (Hashtbl.fold collect net.pipe_table [])

let pipes net = Hashtbl.fold (fun _ pipe acc -> pipe :: acc) net.pipe_table []

let schedule net ~delay action =
  if delay < 0.0 then invalid_arg "Network.schedule: negative delay";
  Event_queue.push net.events ~time:(net.now +. delay) (Ev_action action)

let deliver net message =
  match Hashtbl.find_opt net.peer_table message.Message.dst with
  | Some { handler = Some handler } ->
      net.delivered <- net.delivered + 1;
      net.total_bytes <- net.total_bytes + message.Message.size;
      handler message
  | Some { handler = None } | None ->
      net.dropped <- net.dropped + 1;
      net.dropped_bytes <- net.dropped_bytes + message.Message.size;
      Log.debug (fun m ->
          m "message #%d dropped at delivery: no live handler at %s"
            message.Message.msg_id
            (Peer_id.to_string message.Message.dst))

let send net ~src ~dst payload =
  match pipe_between net src dst with
  | Some pipe when Pipe.is_open pipe ->
      let size = net.size_of ~src ~dst payload + Message.header_bytes in
      net.msg_seq <- net.msg_seq + 1;
      let message =
        { Message.msg_id = net.msg_seq; src; dst; sent_at = net.now; size; payload }
      in
      Pipe.record_traffic pipe ~size;
      let delay = Pipe.transfer_delay pipe ~size in
      let delivery = Pipe.sequence_delivery pipe ~src (net.now +. delay) in
      (match net.fault with
      | None -> Event_queue.push net.events ~time:delivery (Ev_deliver message)
      | Some fault ->
          let v = Fault.verdict fault in
          if v.Fault.v_drop then
            (* a silent in-flight loss: the sender still sees [true],
               exactly like a real network.  Counted per kind in the
               fault counters, not in [dropped] (which stays the
               protocol-visible drop count). *)
            Log.debug (fun m ->
                m "message #%d %s -> %s lost by fault injection" message.Message.msg_id
                  (Peer_id.to_string src) (Peer_id.to_string dst))
          else begin
            (* jitter applies after FIFO sequencing so reordering
               actually happens *)
            Event_queue.push net.events ~time:(delivery +. v.Fault.v_jitter)
              (Ev_deliver message);
            if v.Fault.v_dup then
              Event_queue.push net.events
                ~time:(delivery +. v.Fault.v_jitter +. v.Fault.v_dup_extra)
                (Ev_deliver message)
          end);
      true
  | Some _ | None ->
      net.dropped <- net.dropped + 1;
      (* the link is visibly broken at the sender: upstream codec
         state must stop trusting it before we price the message *)
      notify_link net src dst;
      net.dropped_bytes <-
        net.dropped_bytes + net.size_of ~src ~dst payload + Message.header_bytes;
      Log.debug (fun m ->
          m "message %s -> %s dropped: no open pipe" (Peer_id.to_string src)
            (Peer_id.to_string dst));
      false

let now net = net.now

let in_flight net =
  Event_queue.fold
    (fun acc -> function Ev_deliver m -> m :: acc | Ev_action _ -> acc)
    net.events []

let idle net = Event_queue.is_empty net.events

let step net =
  match Event_queue.pop net.events with
  | None -> false
  | Some (time, event) ->
      net.now <- max net.now time;
      (match event with
      | Ev_action action -> action ()
      | Ev_deliver message -> deliver net message);
      true

let run ?(max_events = max_int) net =
  let rec loop count =
    if count >= max_events then count else if step net then loop (count + 1) else count
  in
  loop 0

let handler_of net dst =
  match Hashtbl.find_opt net.peer_table dst with
  | Some { handler } -> handler
  | None -> None

let install_fault net plan =
  (match Fault.validate_plan plan with
  | Ok () -> ()
  | Error errors -> invalid_arg ("Network.install_fault: " ^ String.concat "; " errors));
  let fault = Fault.make plan in
  net.fault <- Some fault;
  let arm (f : Fault.flap) =
    schedule net ~delay:(Float.max 0.0 (f.Fault.fl_down_at -. net.now)) (fun () ->
        match pipe_between net f.Fault.fl_a f.Fault.fl_b with
        | Some pipe when Pipe.is_open pipe ->
            Fault.note_flap fault;
            close_pipe net pipe
        | Some _ | None -> ());
    schedule net ~delay:(Float.max 0.0 (f.Fault.fl_up_at -. net.now)) (fun () ->
        match pipe_between net f.Fault.fl_a f.Fault.fl_b with
        | Some pipe when not (Pipe.is_open pipe) -> reopen_pipe net pipe
        | Some _ | None -> ())
  in
  List.iter arm plan.Fault.flaps;
  fault

let fault net = net.fault

let counters net =
  let fc =
    match net.fault with
    | Some fault -> Fault.counters fault
    | None ->
        {
          Fault.injected_drops = 0;
          injected_dups = 0;
          injected_flaps = 0;
          crashes = 0;
          restarts = 0;
        }
  in
  {
    delivered = net.delivered;
    dropped = net.dropped;
    total_bytes = net.total_bytes;
    dropped_bytes = net.dropped_bytes;
    injected_drops = fc.Fault.injected_drops;
    injected_dups = fc.Fault.injected_dups;
    injected_flaps = fc.Fault.injected_flaps;
    crashes = fc.Fault.crashes;
    restarts = fc.Fault.restarts;
  }
