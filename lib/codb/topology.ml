module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Atom = Codb_cq.Atom
module Term = Codb_cq.Term
module Schema = Codb_relalg.Schema
module Value = Codb_relalg.Value
module Rng = Codb_workload.Rng
module Datagen = Codb_workload.Datagen

type shape =
  | Chain
  | Ring
  | Star_in
  | Star_out
  | Binary_tree
  | Grid of int * int
  | Random_graph of float
  | Clique

type params = {
  tuples_per_node : int;
  profile : Datagen.profile;
  existential_frac : float;
  comparison_frac : float;
  connected : bool;
}

let default_params =
  {
    tuples_per_node = 50;
    profile = Datagen.default_profile;
    existential_frac = 0.0;
    comparison_frac = 0.0;
    connected = true;
  }

let shape_name = function
  | Chain -> "chain"
  | Ring -> "ring"
  | Star_in -> "star-in"
  | Star_out -> "star-out"
  | Binary_tree -> "binary-tree"
  | Grid (r, c) -> Printf.sprintf "grid-%dx%d" r c
  | Random_graph p -> Printf.sprintf "random-%.2f" p
  | Clique -> "clique"

let check_size shape ~n =
  match shape with
  | _ when n < 1 -> Error (Printf.sprintf "a network needs at least one node (got %d)" n)
  | Grid (rows, cols) when rows < 1 || cols < 1 || rows * cols <> n ->
      Error (Printf.sprintf "a %dx%d grid does not have %d nodes" rows cols n)
  | Chain | Ring | Star_in | Star_out | Binary_tree | Grid _ | Random_graph _ | Clique ->
      Ok ()

let edges ?rng shape ~n =
  (match check_size shape ~n with
  | Ok () -> ()
  | Error reason -> invalid_arg ("Topology.edges: " ^ reason));
  match shape with
  | Chain -> List.init (max 0 (n - 1)) (fun i -> (i, i + 1))
  | Ring ->
      if n < 2 then []
      else List.init n (fun i -> (i, (i + 1) mod n))
  | Star_in -> List.init (max 0 (n - 1)) (fun i -> (0, i + 1))
  | Star_out -> List.init (max 0 (n - 1)) (fun i -> (i + 1, 0))
  | Binary_tree ->
      let children i = [ (2 * i) + 1; (2 * i) + 2 ] in
      List.concat_map
        (fun i -> List.filter_map (fun c -> if c < n then Some (i, c) else None) (children i))
        (List.init n (fun i -> i))
  | Grid (rows, cols) ->
      let index r c = (r * cols) + c in
      let cell acc r c =
        let acc = if c + 1 < cols then (index r c, index r (c + 1)) :: acc else acc in
        if r + 1 < rows then (index r c, index (r + 1) c) :: acc else acc
      in
      let rec rows_loop r acc =
        if r >= rows then acc
        else
          let rec cols_loop c acc =
            if c >= cols then acc else cols_loop (c + 1) (cell acc r c)
          in
          rows_loop (r + 1) (cols_loop 0 acc)
      in
      List.rev (rows_loop 0 [])
  | Clique ->
      List.concat_map
        (fun i ->
          List.filter_map
            (fun j -> if i <> j then Some (i, j) else None)
            (List.init n (fun j -> j)))
        (List.init n (fun i -> i))
  | Random_graph p -> (
      match rng with
      | None -> invalid_arg "Topology.edges: Random_graph needs a generator"
      | Some rng ->
          List.concat_map
            (fun i ->
              List.filter_map
                (fun j -> if i <> j && Rng.bool rng p then Some (i, j) else None)
                (List.init n (fun j -> j)))
            (List.init n (fun i -> i)))

let node_name i = Printf.sprintf "n%d" i

let data_relation = Schema.make "data" [ ("k", Value.Tint); ("v", Value.Tstring) ]

(* One coordination rule for the edge (importer, source).  Plain
   translation by default; optionally an existential head (v becomes a
   marked null at the importer) and/or a selection on k. *)
let edge_rule rng params (importer, source) =
  let x = Term.Var "x" and y = Term.Var "y" and z = Term.Var "z" in
  let existential = Rng.bool rng params.existential_frac in
  let head = Atom.make "data" [ x; (if existential then z else y) ] in
  let body = [ Atom.make "data" [ x; y ] ] in
  let comparisons =
    if Rng.bool rng params.comparison_frac then
      let bound = max 1 (params.profile.Datagen.domain_size * 3 / 5) in
      [ { Query.left = x; op = Query.Le; right = Term.Cst (Value.Int bound) } ]
    else []
  in
  {
    Config.rule_id = Printf.sprintf "r_%d_%d" importer source;
    importer = node_name importer;
    source = node_name source;
    rule_query = Query.make ~head ~body ~comparisons ();
  }

let generate ?(params = default_params) ~seed shape ~n =
  let rng = Rng.make ~seed in
  let base_edges = edges ~rng shape ~n in
  let base_edges =
    match shape with
    | Random_graph _ when params.connected ->
        let backbone = List.init (max 0 (n - 1)) (fun i -> (i, i + 1)) in
        let missing = List.filter (fun e -> not (List.mem e base_edges)) backbone in
        base_edges @ missing
    | Chain | Ring | Star_in | Star_out | Binary_tree | Grid _ | Clique
    | Random_graph _ ->
        base_edges
  in
  let make_node i =
    let facts =
      List.map
        (fun t -> ("data", t))
        (Datagen.distinct_tuples rng params.profile data_relation
           ~count:params.tuples_per_node)
    in
    {
      Config.node_name = node_name i;
      relations = [ data_relation ];
      facts;
      mediator = false;
      constraints = [];
    }
  in
  {
    Config.nodes = List.init n make_node;
    rules = List.map (edge_rule rng params) base_edges;
  }

let rules_only cfg =
  {
    cfg with
    Config.nodes =
      List.map (fun node -> { node with Config.facts = [] }) cfg.Config.nodes;
  }
