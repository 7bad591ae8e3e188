exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* Split a CSV line into raw fields, honouring double-quoted strings. *)
let split_fields line_no line =
  let buf = Buffer.create 16 in
  let fields = ref [] in
  let n = String.length line in
  let rec field i =
    if i >= n then finish ()
    else
      match line.[i] with
      | ',' ->
          push ();
          field (i + 1)
      | '"' -> quoted (i + 1)
      | c ->
          Buffer.add_char buf c;
          field (i + 1)
  and quoted i =
    if i >= n then fail line_no "unterminated string"
    else
      match line.[i] with
      | '"' when i + 1 < n && line.[i + 1] = '"' ->
          Buffer.add_char buf '"';
          quoted (i + 2)
      | '"' ->
          (* Keep a marker so that the typed parser knows the field was
             quoted (hence a string even if it looks numeric). *)
          field (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted (i + 1)
  and push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  and finish () =
    push ();
    List.rev !fields
  in
  field 0

let parse_null line_no raw =
  (* #N<id>@<rule> *)
  match String.index_opt raw '@' with
  | None -> fail line_no "malformed null literal %s" raw
  | Some at -> (
      let id_part = String.sub raw 2 (at - 2) in
      let rule = String.sub raw (at + 1) (String.length raw - at - 1) in
      match int_of_string_opt id_part with
      | Some null_id -> Value.Null { null_id; null_rule = rule }
      | None -> fail line_no "malformed null id in %s" raw)

let parse_value line_no ty raw =
  let raw = String.trim raw in
  if String.length raw >= 2 && raw.[0] = '#' && raw.[1] = 'N' then parse_null line_no raw
  else
    match ty with
    | Value.Tint -> (
        match int_of_string_opt raw with
        | Some i -> Value.Int i
        | None -> fail line_no "expected int, got %s" raw)
    | Value.Tfloat -> (
        match float_of_string_opt raw with
        | Some f -> Value.Float f
        | None -> fail line_no "expected float, got %s" raw)
    | Value.Tbool -> (
        match bool_of_string_opt raw with
        | Some b -> Value.Bool b
        | None -> fail line_no "expected bool, got %s" raw)
    | Value.Tstring -> Value.Str raw

let parse_line schema line_no line =
  let raws = split_fields line_no line in
  let attrs = schema.Schema.attrs in
  if List.length raws <> List.length attrs then
    fail line_no "expected %d fields, got %d" (List.length attrs) (List.length raws);
  let values = List.map2 (fun a raw -> parse_value line_no a.Schema.attr_ty raw) attrs raws in
  Array.of_list values

let load_string schema text =
  let lines = String.split_on_char '\n' text in
  let parse (line_no, acc) line =
    let trimmed = String.trim line in
    if trimmed = "" || trimmed.[0] = '#' then (line_no + 1, acc)
    else (line_no + 1, parse_line schema line_no trimmed :: acc)
  in
  let _, tuples = List.fold_left parse (1, []) lines in
  List.rev tuples

let load_into db rel_name text =
  let rel = Database.relation db rel_name in
  let tuples = load_string (Relation.schema rel) text in
  List.length (Database.insert_all db rel_name tuples)

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let dump_value = function
  | Value.Int i -> string_of_int i
  | Value.Float f -> string_of_float f
  | Value.Str s -> escape_string s
  | Value.Bool b -> string_of_bool b
  | Value.Null n -> Printf.sprintf "#N%d@%s" n.Value.null_id n.Value.null_rule
  | Value.Hole i -> Printf.sprintf "_%d" i

let dump_tuple t = String.concat "," (List.map dump_value (Array.to_list t))

let dump rel = String.concat "\n" (List.map dump_tuple (Relation.to_list rel))

let dump_database db =
  let dump_rel name =
    Printf.sprintf "# relation %s\n%s" name (dump (Database.relation db name))
  in
  String.concat "\n" (List.map dump_rel (Database.rel_names db))

let section_header line =
  let prefix = "# relation " in
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Some (String.trim (String.sub line n (String.length line - n)))
  else None

let parse_database db text =
  let lines = String.split_on_char '\n' text in
  let parse (line_no, current, acc) line =
    let trimmed = String.trim line in
    match section_header trimmed with
    | Some rel ->
        if not (Database.has_relation db rel) then
          fail line_no "unknown relation %s" rel;
        (line_no + 1, Some rel, acc)
    | None ->
        if trimmed = "" || (String.length trimmed > 0 && trimmed.[0] = '#') then
          (line_no + 1, current, acc)
        else begin
          match current with
          | None -> fail line_no "tuple outside any '# relation' section"
          | Some rel ->
              let schema = Relation.schema (Database.relation db rel) in
              (line_no + 1, current, (rel, parse_line schema line_no trimmed) :: acc)
        end
  in
  let _, _, rows = List.fold_left parse (1, None, []) lines in
  List.rev rows

let insert_rows db rows =
  List.fold_left
    (fun count (rel, tuple) -> if Database.insert db rel tuple then count + 1 else count)
    0 rows

let load_database db text = insert_rows db (parse_database db text)
