type ('k, 'v) entry = {
  e_key : 'k;
  mutable e_value : 'v;
  mutable e_bytes : int;
  mutable e_prev : ('k, 'v) entry option;  (* toward the MRU end *)
  mutable e_next : ('k, 'v) entry option;  (* toward the LRU end *)
}

type ('k, 'v) t = {
  table : ('k, ('k, 'v) entry) Hashtbl.t;
  max_entries : int;
  max_bytes : int;
  mutable head : ('k, 'v) entry option;  (* most recently used *)
  mutable tail : ('k, 'v) entry option;  (* least recently used *)
  mutable cur_bytes : int;
  mutable evictions : int;
}

let create ?(max_entries = 0) ?(max_bytes = 0) () =
  {
    table = Hashtbl.create 64;
    max_entries;
    max_bytes;
    head = None;
    tail = None;
    cur_bytes = 0;
    evictions = 0;
  }

let unlink t e =
  (match e.e_prev with Some p -> p.e_next <- e.e_next | None -> t.head <- e.e_next);
  (match e.e_next with Some n -> n.e_prev <- e.e_prev | None -> t.tail <- e.e_prev);
  e.e_prev <- None;
  e.e_next <- None

let push_front t e =
  e.e_next <- t.head;
  e.e_prev <- None;
  (match t.head with Some h -> h.e_prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let drop t e =
  unlink t e;
  Hashtbl.remove t.table e.e_key;
  t.cur_bytes <- t.cur_bytes - e.e_bytes

let find t k =
  match Hashtbl.find_opt t.table k with
  | None -> None
  | Some e ->
      unlink t e;
      push_front t e;
      Some e.e_value

let mem t k = Hashtbl.mem t.table k

let evict_tail t =
  match t.tail with
  | None -> ()
  | Some e ->
      drop t e;
      t.evictions <- t.evictions + 1

let trim t =
  let over () =
    (t.max_entries > 0 && Hashtbl.length t.table > t.max_entries)
    || (t.max_bytes > 0 && t.cur_bytes > t.max_bytes)
  in
  while over () && t.tail <> None do
    evict_tail t
  done

let add t k v ~bytes =
  (match Hashtbl.find_opt t.table k with
  | Some e ->
      t.cur_bytes <- t.cur_bytes - e.e_bytes + bytes;
      e.e_value <- v;
      e.e_bytes <- bytes;
      unlink t e;
      push_front t e
  | None ->
      let e = { e_key = k; e_value = v; e_bytes = bytes; e_prev = None; e_next = None } in
      Hashtbl.replace t.table k e;
      push_front t e;
      t.cur_bytes <- t.cur_bytes + bytes);
  trim t

let remove t k =
  match Hashtbl.find_opt t.table k with None -> () | Some e -> drop t e

let touch t k =
  match Hashtbl.find_opt t.table k with
  | None -> ()
  | Some e ->
      unlink t e;
      push_front t e

let fold f t acc =
  let rec loop acc = function
    | None -> acc
    | Some e -> loop (f ~key:e.e_key ~value:e.e_value acc) e.e_next
  in
  loop acc t.head

let length t = Hashtbl.length t.table

let bytes t = t.cur_bytes

let evictions t = t.evictions

let clear t =
  while t.tail <> None do
    evict_tail t
  done
