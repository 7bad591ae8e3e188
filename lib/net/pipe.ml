type stats = { messages : int; bytes : int }

type t = {
  ep1 : Peer_id.t;
  ep2 : Peer_id.t;
  latency : float;
  byte_cost : float;
  mutable opened : bool;
  mutable messages : int;
  mutable bytes : int;
  mutable last_delivery_12 : float;  (* ep1 -> ep2 direction *)
  mutable last_delivery_21 : float;
}

let create a b ~latency ~byte_cost =
  if Peer_id.equal a b then invalid_arg "Pipe.create: a pipe needs two distinct peers";
  if latency < 0.0 then invalid_arg "Pipe.create: negative latency";
  if byte_cost < 0.0 then invalid_arg "Pipe.create: negative byte cost";
  let ep1, ep2 = if Peer_id.compare a b <= 0 then (a, b) else (b, a) in
  {
    ep1;
    ep2;
    latency;
    byte_cost;
    opened = true;
    messages = 0;
    bytes = 0;
    last_delivery_12 = 0.0;
    last_delivery_21 = 0.0;
  }

let endpoints p = (p.ep1, p.ep2)

let latency p = p.latency

let byte_cost p = p.byte_cost

let is_open p = p.opened

let close p = p.opened <- false

let reopen p = p.opened <- true

let transfer_delay p ~size = p.latency +. (p.byte_cost *. float_of_int size)

let sequence_delivery p ~src tentative =
  if Peer_id.equal src p.ep1 then begin
    let actual = Float.max tentative p.last_delivery_12 in
    p.last_delivery_12 <- actual;
    actual
  end
  else begin
    let actual = Float.max tentative p.last_delivery_21 in
    p.last_delivery_21 <- actual;
    actual
  end

let record_traffic p ~size =
  p.messages <- p.messages + 1;
  p.bytes <- p.bytes + size

let stats p = { messages = p.messages; bytes = p.bytes }

let pp ppf p =
  Fmt.pf ppf "%a<->%a (lat %.4fs, %s, %d msgs, %d B)" Peer_id.pp p.ep1 Peer_id.pp p.ep2
    p.latency
    (if p.opened then "open" else "closed")
    p.messages p.bytes
