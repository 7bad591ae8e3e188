module Value = Codb_relalg.Value
module Schema = Codb_relalg.Schema

exception Parse_error of { line : int; message : string }

type state = { tokens : Lexer.positioned array; mutable pos : int }

let fail_at line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let current st = st.tokens.(st.pos)

let peek st = (current st).Lexer.token

let peek2 st =
  if st.pos + 1 < Array.length st.tokens then Some st.tokens.(st.pos + 1).Lexer.token
  else None

let line st = (current st).Lexer.line

let advance st = st.pos <- st.pos + 1

let expect st token =
  if peek st = token then advance st
  else fail_at (line st) "expected %s, found %s" (Lexer.describe token)
      (Lexer.describe (peek st))

let expect_ident st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      name
  | other -> fail_at (line st) "expected an identifier, found %s" (Lexer.describe other)

let accept st token =
  if peek st = token then begin
    advance st;
    true
  end
  else false

let parse_literal st =
  match peek st with
  | Lexer.INT i ->
      advance st;
      Value.Int i
  | Lexer.FLOAT f ->
      advance st;
      Value.Float f
  | Lexer.STRING s ->
      advance st;
      Value.Str s
  | Lexer.KW_TRUE ->
      advance st;
      Value.Bool true
  | Lexer.KW_FALSE ->
      advance st;
      Value.Bool false
  | other -> fail_at (line st) "expected a literal, found %s" (Lexer.describe other)

let parse_term st =
  match peek st with
  | Lexer.IDENT name ->
      advance st;
      Term.Var name
  | Lexer.INT _ | Lexer.FLOAT _ | Lexer.STRING _ | Lexer.KW_TRUE | Lexer.KW_FALSE ->
      Term.Cst (parse_literal st)
  | other -> fail_at (line st) "expected a term, found %s" (Lexer.describe other)

let rec parse_comma_list st parse_item =
  let item = parse_item st in
  if accept st Lexer.COMMA then item :: parse_comma_list st parse_item else [ item ]

let parse_atom st =
  let rel = expect_ident st in
  expect st Lexer.LPAREN;
  let args = parse_comma_list st parse_term in
  expect st Lexer.RPAREN;
  Atom.make rel args

let comparison_op st =
  match peek st with
  | Lexer.EQ ->
      advance st;
      Some Query.Eq
  | Lexer.NEQ ->
      advance st;
      Some Query.Neq
  | Lexer.LT ->
      advance st;
      Some Query.Lt
  | Lexer.LE ->
      advance st;
      Some Query.Le
  | Lexer.GT ->
      advance st;
      Some Query.Gt
  | Lexer.GE ->
      advance st;
      Some Query.Ge
  | _ -> None

type body_item = B_atom of Atom.t | B_cmp of Query.comparison

let parse_body_item st =
  match (peek st, peek2 st) with
  | Lexer.IDENT _, Some Lexer.LPAREN -> B_atom (parse_atom st)
  | _ ->
      let left = parse_term st in
      let op =
        match comparison_op st with
        | Some op -> op
        | None ->
            fail_at (line st) "expected a comparison operator, found %s"
              (Lexer.describe (peek st))
      in
      let right = parse_term st in
      B_cmp { Query.left; op; right }

let split_body items =
  let step (atoms, cmps) = function
    | B_atom a -> (a :: atoms, cmps)
    | B_cmp c -> (atoms, c :: cmps)
  in
  let atoms, cmps = List.fold_left step ([], []) items in
  (List.rev atoms, List.rev cmps)

let parse_query_from st =
  let head = parse_atom st in
  expect st Lexer.ARROW;
  let items = parse_comma_list st parse_body_item in
  let body, comparisons = split_body items in
  Query.make ~head ~body ~comparisons ()

let parse_attr st =
  let name = expect_ident st in
  expect st Lexer.COLON;
  let at_line = line st in
  let ty_name = expect_ident st in
  match Value.ty_of_string ty_name with
  | Some ty -> (name, ty)
  | None -> fail_at at_line "unknown type %s (expected int, float, string or bool)" ty_name

let parse_node_item st =
  match peek st with
  | Lexer.KW_RELATION ->
      advance st;
      let at_line = line st in
      let rel = expect_ident st in
      expect st Lexer.LPAREN;
      let attrs = parse_comma_list st parse_attr in
      expect st Lexer.RPAREN;
      let _ = accept st Lexer.SEMI in
      let schema =
        try Schema.make rel attrs
        with Invalid_argument msg -> fail_at at_line "%s" msg
      in
      `Relation schema
  | Lexer.KW_FACT ->
      advance st;
      let rel = expect_ident st in
      expect st Lexer.LPAREN;
      let values = parse_comma_list st parse_literal in
      expect st Lexer.RPAREN;
      let _ = accept st Lexer.SEMI in
      `Fact (rel, Array.of_list values)
  | Lexer.KW_CONSTRAINT ->
      advance st;
      let items = parse_comma_list st parse_body_item in
      expect st Lexer.SEMI;
      let body, comparisons = split_body items in
      (* A denial constraint is represented as a query with a dummy
         0-ary head; it is violated when the body has an answer. *)
      `Constraint (Query.make ~head:(Atom.make "_violated" []) ~body ~comparisons ())
  | other -> fail_at (line st) "expected relation, fact or constraint, found %s"
      (Lexer.describe other)

let parse_node_decl st =
  expect st Lexer.KW_NODE;
  let node_name = expect_ident st in
  let mediator = accept st Lexer.KW_MEDIATOR in
  expect st Lexer.LBRACE;
  let rec items acc =
    if accept st Lexer.RBRACE then List.rev acc else items (parse_node_item st :: acc)
  in
  let parsed = items [] in
  let relations =
    List.filter_map (function `Relation s -> Some s | `Fact _ | `Constraint _ -> None) parsed
  in
  let facts =
    List.filter_map (function `Fact f -> Some f | `Relation _ | `Constraint _ -> None) parsed
  in
  let constraints =
    List.filter_map (function `Constraint c -> Some c | `Relation _ | `Fact _ -> None) parsed
  in
  { Config.node_name; relations; facts; mediator; constraints }

let parse_rule_decl st =
  expect st Lexer.KW_RULE;
  let rule_id = expect_ident st in
  expect st Lexer.KW_AT;
  let importer = expect_ident st in
  expect st Lexer.COLON;
  let head = parse_atom st in
  expect st Lexer.ARROW;
  let source = expect_ident st in
  expect st Lexer.COLON;
  let items = parse_comma_list st parse_body_item in
  expect st Lexer.SEMI;
  let body, comparisons = split_body items in
  {
    Config.rule_id;
    importer;
    source;
    rule_query = Query.make ~head ~body ~comparisons ();
  }

let parse_config_tokens st =
  let rec decls nodes rules =
    match peek st with
    | Lexer.EOF -> { Config.nodes = List.rev nodes; rules = List.rev rules }
    | Lexer.KW_NODE -> decls (parse_node_decl st :: nodes) rules
    | Lexer.KW_RULE ->
        let rule = parse_rule_decl st in
        decls nodes (rule :: rules)
    | other ->
        fail_at (line st) "expected 'node' or 'rule', found %s" (Lexer.describe other)
  in
  decls [] []

let with_tokens input f =
  let tokens = Array.of_list (Lexer.tokenize input) in
  f { tokens; pos = 0 }

let parse_config input =
  match with_tokens input parse_config_tokens with
  | cfg -> Ok cfg
  | exception Parse_error { line; message } ->
      Error (Printf.sprintf "parse error at line %d: %s" line message)
  | exception Lexer.Lex_error { line; message } ->
      Error (Printf.sprintf "lexical error at line %d: %s" line message)

let load_config input =
  match parse_config input with
  | Error e -> Error [ e ]
  | Ok cfg -> (
      match Config.validate cfg with Ok () -> Ok cfg | Error errors -> Error errors)

let parse_fact input =
  let parse st =
    let rel = expect_ident st in
    expect st Lexer.LPAREN;
    let values = parse_comma_list st parse_literal in
    expect st Lexer.RPAREN;
    let _ = accept st Lexer.SEMI in
    expect st Lexer.EOF;
    (rel, Array.of_list values)
  in
  match with_tokens input parse with
  | fact -> Ok fact
  | exception Parse_error { line; message } ->
      Error (Printf.sprintf "parse error at line %d: %s" line message)
  | exception Lexer.Lex_error { line; message } ->
      Error (Printf.sprintf "lexical error at line %d: %s" line message)

let parse_query input =
  let parse st =
    let q = parse_query_from st in
    let _ = accept st Lexer.SEMI in
    expect st Lexer.EOF;
    q
  in
  match with_tokens input parse with
  | q -> Ok q
  | exception Parse_error { line; message } ->
      Error (Printf.sprintf "parse error at line %d: %s" line message)
  | exception Lexer.Lex_error { line; message } ->
      Error (Printf.sprintf "lexical error at line %d: %s" line message)
