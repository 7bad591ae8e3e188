(* One emitter for every side bench.  A driver describes its result
   as a tree of tagged fields; [json] writes the whole tree, [gate]
   writes only the fields that a rerun must reproduce exactly.

   A field is [Measured] when it moves from run to run or host to
   host: wall time, simulated durations, allocation, heap and ratios
   of timings.  Everything else is counted or configured, and is what
   the runtest gate diffs against bench/gate.expected. *)

type t =
  | Int of int
  | Bool of bool
  | Str of string
  | Num of float  (** a setting, printed with [%g] *)
  | Fixed of int * float  (** a ratio of counts, to [n] decimals *)
  | Measured of int * float  (** to [n] decimals; left out of the gate *)
  | Obj of (string * t) list
  | List of t list

let scalar = function
  | Int n -> string_of_int n
  | Bool b -> string_of_bool b
  | Str s -> s
  | Num x -> Printf.sprintf "%g" x
  | Fixed (n, x) | Measured (n, x) -> Printf.sprintf "%.*f" n x
  | Obj _ | List _ -> invalid_arg "Emit.scalar"

let is_container = function Obj _ | List _ -> true | _ -> false

let rec inline = function
  | Str s -> Printf.sprintf "%S" s
  | Obj fields ->
      "{"
      ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (inline v)) fields)
      ^ "}"
  | List items -> "[" ^ String.concat ", " (List.map inline items) ^ "]"
  | v -> scalar v

let rec render ~indent v =
  let pad = String.make (indent + 2) ' ' in
  let block opening closing children =
    opening ^ "\n"
    ^ String.concat ",\n" (List.map (fun c -> pad ^ c) children)
    ^ "\n" ^ String.make indent ' ' ^ closing
  in
  match v with
  | Obj fields when List.exists (fun (_, v) -> is_container v) fields ->
      block "{" "}"
        (List.map
           (fun (k, v) -> Printf.sprintf "%S: %s" k (render ~indent:(indent + 2) v))
           fields)
  | List (_ :: _ as items) when List.exists is_container items ->
      block "[" "]" (List.map (render ~indent:(indent + 2)) items)
  | v -> inline v

let json ~path v =
  let oc = open_out path in
  output_string oc (render ~indent:0 v ^ "\n");
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* One "path = value" line per unmeasured field; a list element's
   path segment is its index. *)
let rec gate_lines path = function
  | Measured _ -> []
  | Obj fields -> List.concat_map (fun (k, v) -> gate_lines (path ^ "." ^ k) v) fields
  | List items -> List.concat (List.mapi (fun i v -> gate_lines (Printf.sprintf "%s.%d" path i) v) items)
  | v -> [ path ^ " = " ^ scalar v ]
