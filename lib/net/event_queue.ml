type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;  (* heap.(0) unused when size = 0 *)
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }

let is_empty q = q.size = 0

let length q = q.size

let before e1 e2 = e1.time < e2.time || (e1.time = e2.time && e1.seq < e2.seq)

let ensure_capacity q =
  let cap = Array.length q.heap in
  if q.size >= cap then begin
    let dummy = q.heap.(0) in
    let bigger = Array.make (max 16 (2 * cap)) dummy in
    Array.blit q.heap 0 bigger 0 q.size;
    q.heap <- bigger
  end

let push q ~time payload =
  let entry = { time; seq = q.next_seq; payload } in
  q.next_seq <- q.next_seq + 1;
  if Array.length q.heap = 0 then q.heap <- Array.make 16 entry;
  ensure_capacity q;
  q.heap.(q.size) <- entry;
  q.size <- q.size + 1;
  (* sift up *)
  let rec up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if before q.heap.(i) q.heap.(parent) then begin
        let tmp = q.heap.(i) in
        q.heap.(i) <- q.heap.(parent);
        q.heap.(parent) <- tmp;
        up parent
      end
    end
  in
  up (q.size - 1)

let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    q.size <- q.size - 1;
    if q.size > 0 then begin
      q.heap.(0) <- q.heap.(q.size);
      (* sift down *)
      let rec down i =
        let left = (2 * i) + 1 and right = (2 * i) + 2 in
        let smallest = ref i in
        if left < q.size && before q.heap.(left) q.heap.(!smallest) then smallest := left;
        if right < q.size && before q.heap.(right) q.heap.(!smallest) then
          smallest := right;
        if !smallest <> i then begin
          let tmp = q.heap.(i) in
          q.heap.(i) <- q.heap.(!smallest);
          q.heap.(!smallest) <- tmp;
          down !smallest
        end
      in
      down 0
    end;
    Some (top.time, top.payload)
  end

let clear q = q.size <- 0

let fold f q acc =
  let acc = ref acc in
  for i = 0 to q.size - 1 do
    acc := f !acc q.heap.(i).payload
  done;
  !acc
