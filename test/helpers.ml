(* Shared helpers for the test suites. *)

module Value = Codb_relalg.Value
module Tuple = Codb_relalg.Tuple
module Row = Codb_relalg.Row
module Schema = Codb_relalg.Schema
module Relation = Codb_relalg.Relation
module Database = Codb_relalg.Database
module Term = Codb_cq.Term
module Atom = Codb_cq.Atom
module Query = Codb_cq.Query
module Parser = Codb_cq.Parser
module Config = Codb_cq.Config
module Eval = Codb_cq.Eval

let i n = Value.Int n

let s x = Value.Str x

let tup values = Array.of_list values

(* The protocols carry packed rows; tests state and check tuples. *)
let packed tuples = List.map Row.of_tuple tuples

let boxed rows = List.map Row.to_tuple rows

(* A rule run once on [delta_rel]'s rows from [since] on: prepared
   into a fresh table, so it returns every head the window derives. *)
let one_shot ?naive source ~delta_rel ~since q =
  Eval.run ~delta_rel ~since (Eval.prepare ?naive ~into:(Row.Table.create 8) source q)

(* A user query's answers, boxed for checking. *)
let answer_tuples source q = boxed (Eval.answer_rows source q)

let v name = Term.Var name

let c value = Term.Cst value

let atom rel args = Atom.make rel args

let parse_query text =
  match Parser.parse_query text with
  | Ok q -> q
  | Error e -> Alcotest.failf "parse_query %S: %s" text e

let parse_config text =
  match Parser.load_config text with
  | Ok cfg -> cfg
  | Error errors ->
      Alcotest.failf "load_config: %s" (String.concat "; " errors)

let tuple_testable : Tuple.t Alcotest.testable =
  Alcotest.testable Tuple.pp Tuple.equal

let tuples_testable = Alcotest.list tuple_testable

let sorted_tuples ts = List.sort Tuple.compare ts

let check_tuples msg expected actual =
  Alcotest.check tuples_testable msg (sorted_tuples expected) (sorted_tuples actual)

let db_of schemas rows =
  let db = Database.create schemas in
  List.iter (fun (rel, tuple) -> ignore (Database.insert db rel tuple)) rows;
  db

(* A tiny two-relation schema used across evaluator tests. *)
let r_schema = Schema.make "r" [ ("a", Value.Tint); ("b", Value.Tint) ]

let s_schema = Schema.make "s" [ ("b", Value.Tint); ("c", Value.Tstring) ]

(* Answer sets compared modulo marked nulls.  [a] maps into [b] when
   some assignment of values of [b] to the nulls of [a] sends every
   tuple of [a] to a tuple of [b], constants fixed.  Each set becomes
   the body of a Boolean query whose nulls are variables, and
   [Containment.hom_exists] does the search.  Tuples that share no
   null constrain each other in nothing, so [a] is matched one
   null-connected group at a time: independent nulls never multiply
   the search. *)
let null_groups tuples =
  let nulls t =
    Array.fold_left
      (fun acc -> function
        | Value.Null n -> n.Value.null_id :: acc
        | Value.Int _ | Value.Float _ | Value.Str _ | Value.Bool _ | Value.Hole _ -> acc)
      [] t
  in
  List.fold_left
    (fun groups t ->
      let ids = nulls t in
      let shares (gids, _) = List.exists (fun id -> List.mem id gids) ids in
      let joined, apart = List.partition shares groups in
      let gids = List.concat_map fst joined @ ids in
      (gids, t :: List.concat_map snd joined) :: apart)
    [] tuples
  |> List.map snd

let instance_query tuples =
  let term = function
    | Value.Null n -> Term.Var (Printf.sprintf "n%d" n.Value.null_id)
    | value -> Term.Cst value
  in
  Query.make ~head:(atom "hom" [])
    ~body:(List.map (fun t -> atom "t" (List.map term (Array.to_list t))) tuples)
    ()

let maps_into a b =
  let into = instance_query b in
  List.for_all
    (fun group -> Codb_cq.Containment.hom_exists ~from:(instance_query group) ~into)
    (null_groups a)

let null_equivalent a b = maps_into a b && maps_into b a

(* Every stored tuple of a node with its origin, in (relation, tuple)
   order: two nodes agree on it when they hold the same tuples with
   the same lineage, whatever their row ids. *)
let origins (node : Codb_core.Node.t) =
  let store = node.Codb_core.Node.store in
  List.concat_map
    (fun rel ->
      List.map
        (fun t -> (rel, t, Codb_core.Node.explain node ~rel t))
        (Relation.to_list (Database.relation store rel)))
    (List.sort String.compare (Database.rel_names store))
