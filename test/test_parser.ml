open Helpers
module Pretty = Codb_cq.Pretty
module Lexer = Codb_cq.Lexer

let sample = {|
// a two-node network
node n1 {
  relation person(name: string, dept: string);
  relation job(dept: string, title: string);
  fact person("alice", "cs");
  fact person("bob", "math");
  fact job("cs", "prof");
}
node n2 {
  relation emp(name: string, title: string);
}
node m mediator {
  relation person(name: string, dept: string);
}
rule r1 at n2: emp(x, t) <- n1: person(x, d), job(d, t), d != "hr";
|}

let test_parse_sample () =
  let cfg = parse_config sample in
  Alcotest.(check int) "three nodes" 3 (List.length cfg.Config.nodes);
  Alcotest.(check int) "one rule" 1 (List.length cfg.Config.rules);
  let n1 = Option.get (Config.node cfg "n1") in
  Alcotest.(check int) "n1 relations" 2 (List.length n1.Config.relations);
  Alcotest.(check int) "n1 facts" 3 (List.length n1.Config.facts);
  Alcotest.(check bool) "n1 not mediator" false n1.Config.mediator;
  let m = Option.get (Config.node cfg "m") in
  Alcotest.(check bool) "m mediator" true m.Config.mediator;
  let r1 = List.hd cfg.Config.rules in
  Alcotest.(check string) "importer" "n2" r1.Config.importer;
  Alcotest.(check string) "source" "n1" r1.Config.source;
  Alcotest.(check int) "body atoms" 2 (List.length r1.Config.rule_query.Query.body);
  Alcotest.(check int) "comparisons" 1
    (List.length r1.Config.rule_query.Query.comparisons)

let test_comments_both_styles () =
  let cfg = parse_config "# hash comment\n// slash comment\nnode a { relation r(x: int); }" in
  Alcotest.(check int) "one node" 1 (List.length cfg.Config.nodes)

let test_parse_query_forms () =
  let q = parse_query "ans(x) <- emp(x, t), t = \"prof\"" in
  Alcotest.(check int) "one atom" 1 (List.length q.Query.body);
  Alcotest.(check int) "one comparison" 1 (List.length q.Query.comparisons);
  let q2 = parse_query "ans(x, 3) <- r(x, y), y >= 2;" in
  Alcotest.(check bool) "constant in head" true
    (List.exists (fun t -> Term.equal t (c (i 3))) q2.Query.head.Atom.args)

let test_literals () =
  let cfg =
    parse_config
      {|node a {
          relation r(i: int, f: float, s: string, b: bool);
          fact r(-5, 2.5, "x ""quoted""", false);
        }|}
  in
  let node = List.hd cfg.Config.nodes in
  let _, fact = List.hd node.Config.facts in
  Alcotest.check tuple_testable "literal values"
    (tup [ i (-5); Value.Float 2.5; s "x \"quoted\""; Value.Bool false ])
    fact

let test_float_exponents () =
  let cfg =
    parse_config
      {|node a { relation r(f: float); fact r(1e3); fact r(-2.5E-2); fact r(7.0e+2); }|}
  in
  let facts = List.map snd (List.hd cfg.Config.nodes).Config.facts in
  Alcotest.(check bool) "1e3" true
    (List.exists (fun t -> Value.equal t.(0) (Value.Float 1000.0)) facts);
  Alcotest.(check bool) "-2.5E-2" true
    (List.exists (fun t -> Value.equal t.(0) (Value.Float (-0.025))) facts);
  (* printing and re-parsing a config with extreme floats is stable *)
  let extreme =
    parse_config {|node a { relation r(f: float); fact r(1e30); fact r(4e-24); }|}
  in
  let printed = Codb_cq.Pretty.config_to_string extreme in
  let reparsed = parse_config printed in
  Alcotest.(check string) "round trip" printed
    (Codb_cq.Pretty.config_to_string reparsed)

let test_syntax_errors () =
  let fails text =
    match Parser.parse_config text with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "missing brace" true (fails "node a { relation r(x: int);");
  Alcotest.(check bool) "bad type" true (fails "node a { relation r(x: decimal); }");
  Alcotest.(check bool) "missing semi on rule" true
    (fails "node a { relation r(x: int); } rule q at a: r(x) <- a: r(x)");
  Alcotest.(check bool) "garbage" true (fails "nodule a {}");
  Alcotest.(check bool) "unterminated string" true (fails "node a { fact r(\"x); }")

let test_validation_errors () =
  let invalid text expected_fragment =
    match Parser.load_config text with
    | Ok _ -> Alcotest.failf "expected validation failure for %s" expected_fragment
    | Error errors ->
        let found =
          List.exists
            (fun e ->
              let n = String.length expected_fragment in
              let h = String.length e in
              let rec loop idx =
                idx + n <= h && (String.sub e idx n = expected_fragment || loop (idx + 1))
              in
              loop 0)
            errors
        in
        Alcotest.(check bool) (expected_fragment ^ " reported") true found
  in
  invalid "node a { relation r(x: int); } node a { relation r(x: int); }" "duplicate node";
  invalid
    "node a { relation r(x: int); } rule z at a: r(x) <- b: r(x);"
    "unknown source";
  invalid
    "node a { relation r(x: int); } node b { relation r(x: int); } rule z at a: q(x) <- b: r(x);"
    "relation q not in schema";
  invalid
    "node a { relation r(x: int); } node b { relation r(x: int); } rule z at a: r(x, y) <- b: r(x);"
    "arity";
  invalid
    "node a { relation r(x: int); fact r(\"nope\"); }"
    "does not conform";
  invalid
    "node a { relation r(x: int); } node b { relation r(x: int); } rule z at a: r(x) <- b: r(x), w < 1;"
    "not bound";
  invalid
    "node a { relation r(x: int); } node b { relation s(x: string); } rule q at a: r(x) <- b: s(x);"
    "rule q: variable x fills head column r.x (int) from body column s.x (string)";
  invalid
    "node a { relation r(x: int, y: int); } node b { relation s(x: int); } rule q at a: r(x, \"k\") <- b: s(x);"
    "rule q: head constant \"k\" does not conform to r.y (int)"

let test_self_rule_rejected () =
  match
    Parser.load_config
      "node a { relation r(x: int); } rule z at a: r(x) <- a: r(x);"
  with
  | Ok _ -> Alcotest.fail "self-rule accepted"
  | Error errors ->
      Alcotest.(check bool) "mentions same node" true
        (List.exists (fun e -> String.length e > 0) errors)

let test_pretty_round_trip_sample () =
  let cfg = parse_config sample in
  let printed = Pretty.config_to_string cfg in
  let cfg2 = parse_config printed in
  let printed2 = Pretty.config_to_string cfg2 in
  Alcotest.(check string) "fixpoint after one round" printed printed2

let test_lexer_tokens () =
  let tokens = Lexer.tokenize "<- <= < >= > != = ; , : ( ) { }" in
  let kinds = List.map (fun t -> t.Lexer.token) tokens in
  Alcotest.(check int) "count with EOF" 15 (List.length kinds);
  Alcotest.(check bool) "arrow first" true (List.hd kinds = Lexer.ARROW)

let test_lexer_line_numbers () =
  match Parser.parse_config "node a {\n relation r(x: int);\n oops\n}" with
  | Error message ->
      Alcotest.(check bool) "line 3 reported" true
        (let frag = "line 3" in
         let n = String.length frag and h = String.length message in
         let rec loop i = i + n <= h && (String.sub message i n = frag || loop (i + 1)) in
         loop 0)
  | Ok _ -> Alcotest.fail "expected error"

let suite =
  [
    Alcotest.test_case "parse a full network file" `Quick test_parse_sample;
    Alcotest.test_case "comment styles" `Quick test_comments_both_styles;
    Alcotest.test_case "standalone queries" `Quick test_parse_query_forms;
    Alcotest.test_case "literal syntax" `Quick test_literals;
    Alcotest.test_case "float exponents" `Quick test_float_exponents;
    Alcotest.test_case "syntax errors" `Quick test_syntax_errors;
    Alcotest.test_case "validation errors" `Quick test_validation_errors;
    Alcotest.test_case "self-rules rejected" `Quick test_self_rule_rejected;
    Alcotest.test_case "pretty-print round trip" `Quick test_pretty_round_trip_sample;
    Alcotest.test_case "lexer token inventory" `Quick test_lexer_tokens;
    Alcotest.test_case "error line numbers" `Quick test_lexer_line_numbers;
  ]
