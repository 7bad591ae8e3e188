module Peer_id = Codb_net.Peer_id
module Codec = Codb_net.Codec
module Row = Codb_relalg.Row
module Value = Codb_relalg.Value
module Intern = Codb_relalg.Intern
module Specialize = Codb_cq.Specialize

type update_scope = Global | For_rule of string

type batch_entry = { be_rule : string; be_hops : int; be_rows : Row.t list }

type sub_entry = {
  se_sub : string;
  se_adds : Row.t list;
  se_retracts : Row.t list;
  se_tag : string;
}

type t =
  | Update_request of { update_id : Ids.update_id; scope : update_scope }
  | Update_data of {
      update_id : Ids.update_id;
      rule_id : string;
      rows : Row.t list;
      hops : int;
      global : bool;
      no_ack : bool;
    }
  | Update_batch of {
      update_id : Ids.update_id;
      entries : batch_entry list;
      closes : string list;
      global : bool;
      no_ack : bool;
      carries_ack : bool;
      subtree_done : bool;
    }
  | Update_link_closed of {
      update_id : Ids.update_id;
      rule_id : string;
      global : bool;
      no_ack : bool;
    }
  | Update_ack of { update_id : Ids.update_id }
  | Update_terminated of { update_id : Ids.update_id }
  | Query_request of {
      query_id : Ids.query_id;
      request_ref : string;
      rule_id : string;
      label : Peer_id.t list;
      constraints : Specialize.t;
    }
  | Query_data of {
      query_id : Ids.query_id;
      request_ref : string;
      rule_id : string;
      rows : Row.t list;
    }
  | Query_done of {
      query_id : Ids.query_id;
      request_ref : string;
      rule_id : string;
      complete : bool;
      rows : Row.t list;
    }
  | Rules_file of { version : int; text : string }
  | Start_update
  | Stats_request
  | Stats_response of { stats : Stats.snapshot }
  | Discovery_probe of { probe_id : string; ttl : int; path : Peer_id.t list }
  | Discovery_reply of { probe_id : string; path : Peer_id.t list; peers : Peer_id.t list }
  | Seq of { seq : int; inner : t }
  | Seq_ack of { seq : int }
  | Sub_register of { sub_id : string; query_text : string }
  | Sub_registered of { sub_id : string; accepted : bool; reason : string }
  | Sub_unregister of { sub_id : string }
  | Answer_delta of {
      sub_id : string;
      adds : Row.t list;
      retracts : Row.t list;
      tag : string;
    }
  | Answer_batch of { entries : sub_entry list }

(* ---- Concurrency classification ------------------------------------- *)

(* A payload is parallel-safe when handling it is a pure function of
   the destination node's own state plus outbound effects: no new
   value identities are minted (hole instantiation mints marked nulls
   through the process-global counter) and no cross-node control state
   moves (rules installation, crash/restart bookkeeping, discovery and
   subscription registration mutate routing/registry state that later
   same-time events may read). *)
let rows_safe rows = not (List.exists Row.has_hole rows)

let rec parallel_safe = function
  | Update_request _ | Update_link_closed _ | Update_ack _ | Update_terminated _
  | Query_request _ | Seq_ack _ ->
      true
  | Update_data { rows; _ } | Query_data { rows; _ } | Query_done { rows; _ } ->
      rows_safe rows
  | Update_batch { entries; _ } -> List.for_all (fun e -> rows_safe e.be_rows) entries
  | Answer_delta { adds; retracts; _ } -> rows_safe adds && rows_safe retracts
  | Answer_batch { entries } ->
      List.for_all (fun e -> rows_safe e.se_adds && rows_safe e.se_retracts) entries
  | Seq { inner; _ } -> parallel_safe inner
  | Rules_file _ | Start_update | Stats_request | Stats_response _ | Discovery_probe _
  | Discovery_reply _ | Sub_register _ | Sub_registered _ | Sub_unregister _ ->
      false

let rec is_update_protocol = function
  | Update_request _ | Update_data _ | Update_batch _ | Update_link_closed _ -> true
  | Update_ack _ | Update_terminated _ | Query_request _ | Query_data _ | Query_done _
  | Rules_file _ | Start_update | Stats_request | Stats_response _ | Discovery_probe _
  | Discovery_reply _ | Seq_ack _ | Sub_register _ | Sub_registered _
  | Sub_unregister _ | Answer_delta _ | Answer_batch _ ->
      false
  | Seq { inner; _ } -> is_update_protocol inner

let rec describe = function
  | Update_request { update_id; scope = Global } ->
      "update-request " ^ Ids.string_of_update update_id
  | Update_request { update_id; scope = For_rule rule } ->
      Printf.sprintf "update-request %s for %s" (Ids.string_of_update update_id) rule
  | Update_data { rule_id; rows; _ } ->
      Printf.sprintf "update-data %s (%d tuples)" rule_id (List.length rows)
  | Update_batch { entries; closes; carries_ack; subtree_done; _ } ->
      Printf.sprintf "update-batch (%d rules, %d tuples)%s%s" (List.length entries)
        (List.fold_left (fun acc e -> acc + List.length e.be_rows) 0 entries)
        (if closes = [] then "" else " closing " ^ String.concat "," closes)
        (if subtree_done then " +done" else if carries_ack then " +ack" else "")
  | Update_link_closed { rule_id; _ } -> "link-closed " ^ rule_id
  | Update_ack _ -> "ack"
  | Update_terminated _ -> "terminated"
  | Query_request { rule_id; constraints; _ } ->
      if Specialize.is_any constraints then "query-request " ^ rule_id
      else
        Printf.sprintf "query-request %s [%d preds]" rule_id
          (Specialize.pred_count constraints)
  | Query_data { rule_id; rows; _ } ->
      Printf.sprintf "query-data %s (%d tuples)" rule_id (List.length rows)
  | Query_done { rule_id; rows = []; _ } -> "query-done " ^ rule_id
  | Query_done { rule_id; rows; _ } ->
      Printf.sprintf "query-done %s (%d tuples)" rule_id (List.length rows)
  | Rules_file { version; _ } -> Printf.sprintf "rules-file v%d" version
  | Start_update -> "start-update"
  | Stats_request -> "stats-request"
  | Stats_response _ -> "stats-response"
  | Discovery_probe { ttl; _ } -> Printf.sprintf "discovery-probe ttl=%d" ttl
  | Discovery_reply { peers; _ } ->
      Printf.sprintf "discovery-reply (%d peers)" (List.length peers)
  | Seq { seq; inner } -> Printf.sprintf "seq#%d %s" seq (describe inner)
  | Seq_ack { seq } -> Printf.sprintf "seq-ack#%d" seq
  | Sub_register { sub_id; _ } -> "sub-register " ^ sub_id
  | Sub_registered { sub_id; accepted = true; _ } -> "sub-registered " ^ sub_id
  | Sub_registered { sub_id; accepted = false; _ } -> "sub-refused " ^ sub_id
  | Sub_unregister { sub_id } -> "sub-unregister " ^ sub_id
  | Answer_delta { sub_id; adds; retracts; _ } ->
      Printf.sprintf "answer-delta %s (+%d -%d)" sub_id (List.length adds)
        (List.length retracts)
  | Answer_batch { entries } ->
      Printf.sprintf "answer-batch (%d subs, %d tuples)" (List.length entries)
        (List.fold_left
           (fun acc e ->
             acc + List.length e.se_adds + List.length e.se_retracts)
           0 entries)

(* ---- Compact binary wire format ------------------------------------- *)
(* One tag byte per payload, then fields through Codb_net.Codec: counts and
   lengths as unsigned varints, every other integer zigzag-encoded, strings
   through a dictionary (rule ids, peer names, null provenance tags and
   skewed data strings all repeat heavily within one message and across a
   link).
   [Stats_response] carries an in-memory snapshot record that never crosses
   the measured update path, so it is deliberately not encodable; its size
   is the statistics module's own estimate of the snapshot. *)

let tag_of = function
  | Update_request { scope = Global; _ } -> 0
  | Update_request { scope = For_rule _; _ } -> 1
  | Update_data _ -> 2
  | Update_batch _ -> 3
  | Update_link_closed _ -> 4
  | Update_ack _ -> 5
  | Update_terminated _ -> 6
  | Query_request _ -> 7
  | Query_data _ -> 8
  | Query_done _ -> 9
  | Rules_file _ -> 10
  | Start_update -> 11
  | Stats_request -> 12
  | Stats_response _ -> 13
  | Discovery_probe _ -> 14
  | Discovery_reply _ -> 15
  | Seq _ -> 16
  | Seq_ack _ -> 17
  | Sub_register _ -> 18
  | Sub_registered _ -> 19
  | Sub_unregister _ -> 20
  | Answer_delta _ -> 21
  | Answer_batch _ -> 22

let put_value w = function
  | Value.Int n ->
      Codec.byte w 0;
      Codec.zigzag w n
  | Value.Float f ->
      Codec.byte w 1;
      Codec.float64 w f
  | Value.Str s ->
      Codec.byte w 2;
      Codec.string w s
  | Value.Bool false -> Codec.byte w 3
  | Value.Bool true -> Codec.byte w 4
  | Value.Null { Value.null_id; null_rule } ->
      Codec.byte w 5;
      Codec.zigzag w null_id;
      Codec.string w null_rule
  | Value.Hole i ->
      Codec.byte w 6;
      Codec.zigzag w i

let get_value r =
  match Codec.read_byte r with
  | 0 -> Value.Int (Codec.read_zigzag r)
  | 1 -> Value.Float (Codec.read_float64 r)
  | 2 -> Value.Str (Codec.read_string r)
  | 3 -> Value.Bool false
  | 4 -> Value.Bool true
  | 5 ->
      let null_id = Codec.read_zigzag r in
      let null_rule = Codec.read_string r in
      Value.Null { Value.null_id; null_rule }
  | 6 -> Value.Hole (Codec.read_zigzag r)
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown value tag %d" n))

(* The one tuple codec, shared by the wire and the WAL: a packed row
   is written through each cell's canonical value, which
   {!Intern.unpack} finds without allocating.  No closures:
   [encoded_size] runs this once per value of every message. *)
let put_row w (row : Row.t) =
  Codec.varint w (Array.length row);
  for i = 0 to Array.length row - 1 do
    put_value w (Intern.unpack row.(i))
  done

let get_row r : Row.t =
  let arity = Codec.read_count r in
  Array.init arity (fun _ -> Intern.pack (get_value r))

let rec put_row_list w = function
  | [] -> ()
  | row :: rest ->
      put_row w row;
      put_row_list w rest

let put_rows w rows =
  Codec.varint w (List.length rows);
  put_row_list w rows

let get_rows r = List.init (Codec.read_count r) (fun _ -> get_row r)

(* rows written by [put_row_list] as a frame's last field *)
let[@tail_mod_cons] rec get_rows_to_end r =
  if Codec.at_end r then []
  else
    let row = get_row r in
    row :: get_rows_to_end r

let put_update_id w (u : Ids.update_id) =
  Codec.string w (Peer_id.to_string u.Ids.u_origin);
  Codec.zigzag w u.Ids.u_serial

(* A flipped bit can turn a peer name into the empty string, which
   [Peer_id.of_string] rejects with [Invalid_argument]; decoders must
   fail with [Malformed] only. *)
let get_peer r =
  match Codec.read_string r with
  | "" -> raise (Codec.Malformed "empty peer name")
  | s -> Peer_id.of_string s

let get_update_id r =
  let origin = get_peer r in
  Ids.update_id origin (Codec.read_zigzag r)

let put_query_id w (q : Ids.query_id) =
  Codec.string w (Peer_id.to_string q.Ids.q_origin);
  Codec.zigzag w q.Ids.q_serial

let get_query_id r =
  let origin = get_peer r in
  Ids.query_id origin (Codec.read_zigzag r)

let put_peers w peers =
  Codec.varint w (List.length peers);
  List.iter (fun p -> Codec.string w (Peer_id.to_string p)) peers

let get_peers r = List.init (Codec.read_count r) (fun _ -> get_peer r)

let op_tag = function
  | Codb_cq.Query.Eq -> 0
  | Codb_cq.Query.Neq -> 1
  | Codb_cq.Query.Lt -> 2
  | Codb_cq.Query.Le -> 3
  | Codb_cq.Query.Gt -> 4
  | Codb_cq.Query.Ge -> 5

let op_of_tag = function
  | 0 -> Codb_cq.Query.Eq
  | 1 -> Codb_cq.Query.Neq
  | 2 -> Codb_cq.Query.Lt
  | 3 -> Codb_cq.Query.Le
  | 4 -> Codb_cq.Query.Gt
  | 5 -> Codb_cq.Query.Ge
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown comparison tag %d" n))

let put_operand w = function
  | Specialize.Col i ->
      Codec.byte w 0;
      Codec.varint w i
  | Specialize.Const v ->
      Codec.byte w 1;
      put_value w v

let get_operand r =
  match Codec.read_byte r with
  | 0 -> Specialize.Col (Codec.read_varint r)
  | 1 -> Specialize.Const (get_value r)
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown operand tag %d" n))

let put_constraints w = function
  | Specialize.Any -> Codec.byte w 0
  | Specialize.One_of alts ->
      Codec.byte w 1;
      Codec.varint w (List.length alts);
      List.iter
        (fun conj ->
          Codec.varint w (List.length conj);
          List.iter
            (fun { Specialize.p_left; p_op; p_right } ->
              Codec.byte w (op_tag p_op);
              put_operand w p_left;
              put_operand w p_right)
            conj)
        alts

let get_constraints r =
  match Codec.read_byte r with
  | 0 -> Specialize.Any
  | 1 ->
      Specialize.One_of
        (List.init (Codec.read_count r) (fun _ ->
             List.init (Codec.read_count r) (fun _ ->
                 let p_op = op_of_tag (Codec.read_byte r) in
                 let p_left = get_operand r in
                 let p_right = get_operand r in
                 { Specialize.p_left; p_op; p_right })))
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown constraint tag %d" n))

let put_bool w b = Codec.byte w (if b then 1 else 0)

let get_bool r =
  match Codec.read_byte r with
  | 0 -> false
  | 1 -> true
  | n -> raise (Codec.Malformed (Printf.sprintf "bad bool byte %d" n))

(* The update flag byte: bit 0 [global], bit 1 [no_ack], bit 2
   [carries_ack] and bit 3 [subtree_done] (a close only; bit 3 only
   with bit 2).  [global] alone encodes as the bool byte it
   replaced. *)
let put_flags w ~global ~no_ack ~carries_ack ~subtree_done =
  Codec.byte w
    ((if global then 1 else 0)
    lor (if no_ack then 2 else 0)
    lor (if carries_ack then 4 else 0)
    lor if subtree_done then 8 else 0)

(* [mask] is the constructor's valid bits. *)
let get_flags r ~mask =
  let b = Codec.read_byte r in
  if b land lnot mask <> 0 || (b land 8 <> 0 && b land 4 = 0) then
    raise (Codec.Malformed (Printf.sprintf "bad update flag byte %d" b));
  (b land 1 <> 0, b land 2 <> 0, b land 4 <> 0, b land 8 <> 0)

let rec put_payload w payload =
  Codec.byte w (tag_of payload);
  match payload with
  | Update_request { update_id; scope = Global } -> put_update_id w update_id
  | Update_request { update_id; scope = For_rule rule } ->
      put_update_id w update_id;
      Codec.string w rule
  | Update_data { update_id; rule_id; rows; hops; global; no_ack } ->
      put_update_id w update_id;
      Codec.string w rule_id;
      Codec.zigzag w hops;
      put_flags w ~global ~no_ack ~carries_ack:false ~subtree_done:false;
      put_rows w rows
  | Update_batch { update_id; entries; closes; global; no_ack; carries_ack; subtree_done } ->
      put_update_id w update_id;
      put_flags w ~global ~no_ack ~carries_ack ~subtree_done;
      Codec.varint w (List.length entries);
      List.iter
        (fun { be_rule; be_hops; be_rows } ->
          Codec.string w be_rule;
          Codec.zigzag w be_hops;
          put_rows w be_rows)
        entries;
      Codec.varint w (List.length closes);
      List.iter (Codec.string w) closes
  | Update_link_closed { update_id; rule_id; global; no_ack } ->
      put_update_id w update_id;
      Codec.string w rule_id;
      put_flags w ~global ~no_ack ~carries_ack:false ~subtree_done:false
  | Update_ack { update_id } -> put_update_id w update_id
  | Update_terminated { update_id } -> put_update_id w update_id
  | Query_request { query_id; request_ref; rule_id; label; constraints } ->
      put_query_id w query_id;
      Codec.string w request_ref;
      Codec.string w rule_id;
      put_peers w label;
      put_constraints w constraints
  | Query_data { query_id; request_ref; rule_id; rows } ->
      put_query_id w query_id;
      Codec.string w request_ref;
      Codec.string w rule_id;
      put_rows w rows
  | Query_done { query_id; request_ref; rule_id; complete; rows } ->
      put_query_id w query_id;
      Codec.string w request_ref;
      Codec.string w rule_id;
      (* the bool byte, with bit 1 set when rows follow: an empty done
         is the bytes it always was.  The rows run to the frame's end
         (a payload is always the last field of its frame, a [Seq]'s
         too), so they need no count, and a done with rows is never
         longer than the [Query_data] it replaces. *)
      Codec.byte w ((if complete then 1 else 0) lor if rows = [] then 0 else 2);
      put_row_list w rows
  | Rules_file { version; text } ->
      Codec.zigzag w version;
      Codec.raw_string w text
  | Start_update | Stats_request -> ()
  | Stats_response _ ->
      invalid_arg "Payload.encode: Stats_response is not wire-encodable"
  | Discovery_probe { probe_id; ttl; path } ->
      Codec.string w probe_id;
      Codec.zigzag w ttl;
      put_peers w path
  | Discovery_reply { probe_id; path; peers } ->
      Codec.string w probe_id;
      put_peers w path;
      put_peers w peers
  | Seq { seq; inner } ->
      Codec.varint w seq;
      (* recursive: the wrapped frame shares the message's string
         dictionary with its payload *)
      put_payload w inner
  | Seq_ack { seq } -> Codec.varint w seq
  | Sub_register { sub_id; query_text } ->
      Codec.string w sub_id;
      Codec.raw_string w query_text
  | Sub_registered { sub_id; accepted; reason } ->
      Codec.string w sub_id;
      put_bool w accepted;
      Codec.raw_string w reason
  | Sub_unregister { sub_id } -> Codec.string w sub_id
  | Answer_delta { sub_id; adds; retracts; tag } ->
      Codec.string w sub_id;
      Codec.string w tag;
      put_rows w adds;
      put_rows w retracts
  | Answer_batch { entries } ->
      Codec.varint w (List.length entries);
      List.iter
        (fun { se_sub; se_adds; se_retracts; se_tag } ->
          Codec.string w se_sub;
          Codec.string w se_tag;
          put_rows w se_adds;
          put_rows w se_retracts)
        entries

(* Self-contained (no [link]): the link format against a fresh
   dictionary, with no epoch stamp.  Link frame: a varint epoch stamp,
   then the body with strings in [Linked] mode against the per-link
   dictionary.  The epoch lets the receiver pick the decode table
   ({!Codec.Dict.table_for}) and makes desync detectable instead of
   silent. *)
let put_message w ?link payload =
  (match link with Some d -> Codec.varint w (Codec.Dict.epoch d) | None -> ());
  put_payload w payload

let encode ?link payload =
  let w = Codec.writer ?dict:link () in
  put_message w ?link payload;
  Codec.contents w

let rec get_payload r =
  match Codec.read_byte r with
  | 0 ->
      let update_id = get_update_id r in
      Update_request { update_id; scope = Global }
  | 1 ->
      let update_id = get_update_id r in
      Update_request { update_id; scope = For_rule (Codec.read_string r) }
  | 2 ->
      let update_id = get_update_id r in
      let rule_id = Codec.read_string r in
      let hops = Codec.read_zigzag r in
      let global, no_ack, _, _ = get_flags r ~mask:3 in
      let rows = get_rows r in
      Update_data { update_id; rule_id; rows; hops; global; no_ack }
  | 3 ->
      let update_id = get_update_id r in
      let global, no_ack, carries_ack, subtree_done = get_flags r ~mask:15 in
      let entries =
        List.init (Codec.read_count r) (fun _ ->
            let be_rule = Codec.read_string r in
            let be_hops = Codec.read_zigzag r in
            let be_rows = get_rows r in
            { be_rule; be_hops; be_rows })
      in
      let closes = List.init (Codec.read_count r) (fun _ -> Codec.read_string r) in
      Update_batch { update_id; entries; closes; global; no_ack; carries_ack; subtree_done }
  | 4 ->
      let update_id = get_update_id r in
      let rule_id = Codec.read_string r in
      let global, no_ack, _, _ = get_flags r ~mask:3 in
      Update_link_closed { update_id; rule_id; global; no_ack }
  | 5 -> Update_ack { update_id = get_update_id r }
  | 6 -> Update_terminated { update_id = get_update_id r }
  | 7 ->
      let query_id = get_query_id r in
      let request_ref = Codec.read_string r in
      let rule_id = Codec.read_string r in
      let label = get_peers r in
      let constraints = get_constraints r in
      Query_request { query_id; request_ref; rule_id; label; constraints }
  | 8 ->
      let query_id = get_query_id r in
      let request_ref = Codec.read_string r in
      let rule_id = Codec.read_string r in
      let rows = get_rows r in
      Query_data { query_id; request_ref; rule_id; rows }
  | 9 ->
      let query_id = get_query_id r in
      let request_ref = Codec.read_string r in
      let rule_id = Codec.read_string r in
      let b = Codec.read_byte r in
      if b > 3 then raise (Codec.Malformed (Printf.sprintf "bad query-done byte %d" b));
      let rows = if b land 2 = 0 then [] else get_rows_to_end r in
      if b land 2 <> 0 && rows = [] then
        raise (Codec.Malformed "query-done flags rows but carries none");
      Query_done { query_id; request_ref; rule_id; complete = b land 1 <> 0; rows }
  | 10 ->
      let version = Codec.read_zigzag r in
      Rules_file { version; text = Codec.read_raw_string r }
  | 11 -> Start_update
  | 12 -> Stats_request
  | 13 -> raise (Codec.Malformed "Stats_response is not wire-encodable")
  | 14 ->
      let probe_id = Codec.read_string r in
      let ttl = Codec.read_zigzag r in
      let path = get_peers r in
      Discovery_probe { probe_id; ttl; path }
  | 15 ->
      let probe_id = Codec.read_string r in
      let path = get_peers r in
      let peers = get_peers r in
      Discovery_reply { probe_id; path; peers }
  | 16 ->
      let seq = Codec.read_varint r in
      Seq { seq; inner = get_payload r }
  | 17 -> Seq_ack { seq = Codec.read_varint r }
  | 18 ->
      let sub_id = Codec.read_string r in
      Sub_register { sub_id; query_text = Codec.read_raw_string r }
  | 19 ->
      let sub_id = Codec.read_string r in
      let accepted = get_bool r in
      Sub_registered { sub_id; accepted; reason = Codec.read_raw_string r }
  | 20 -> Sub_unregister { sub_id = Codec.read_string r }
  | 21 ->
      let sub_id = Codec.read_string r in
      let tag = Codec.read_string r in
      let adds = get_rows r in
      let retracts = get_rows r in
      Answer_delta { sub_id; adds; retracts; tag }
  | 22 ->
      let entries =
        List.init (Codec.read_count r) (fun _ ->
            let se_sub = Codec.read_string r in
            let se_tag = Codec.read_string r in
            let se_adds = get_rows r in
            let se_retracts = get_rows r in
            { se_sub; se_adds; se_retracts; se_tag })
      in
      Answer_batch { entries }
  | n -> raise (Codec.Malformed (Printf.sprintf "unknown payload tag %d" n))

let decode ?link bytes =
  try
    let r =
      match link with
      | None -> Codec.reader bytes
      | Some rc ->
          (* Read the epoch stamp with a throwaway reader, then decode
             the body against the table that epoch selects. *)
          let r0 = Codec.reader bytes in
          let epoch = Codec.read_varint r0 in
          let body_at = String.length bytes - Codec.remaining r0 in
          Codec.reader ~table:(Codec.Dict.table_for rc ~epoch)
            (String.sub bytes body_at (String.length bytes - body_at))
    in
    let payload = get_payload r in
    if Codec.at_end r then Ok payload
    else Error "Payload.decode: trailing bytes"
  with Codec.Malformed why -> Error ("Payload.decode: " ^ why)

let encoded_size ?link payload =
  match payload with
  | Stats_response { stats } ->
      (* never wire-encoded: a tag byte plus the snapshot's own size
         estimate stands in, and it never trains a link dictionary *)
      1 + Stats.snapshot_size_bytes stats
  | payload ->
      (* the encoder itself, over a writer that only counts *)
      let w = Codec.counter ?dict:link () in
      put_message w ?link payload;
      Codec.size w
