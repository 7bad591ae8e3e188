module Config = Codb_cq.Config
module Containment = Codb_cq.Containment

type redundancy = {
  redundant : Config.rule_decl;
  covered_by : Config.rule_decl;
}

let same_endpoints (r1 : Config.rule_decl) (r2 : Config.rule_decl) =
  String.equal r1.Config.importer r2.Config.importer
  && String.equal r1.Config.source r2.Config.source

(* r1 is made redundant by r2 when r1 ⊆ r2; for equivalent rules only
   the one with the larger id is redundant, breaking the tie. *)
let covered_by r1 r2 =
  (not (String.equal r1.Config.rule_id r2.Config.rule_id))
  && same_endpoints r1 r2
  && Containment.contained r1.Config.rule_query r2.Config.rule_query
  && ((not (Containment.contained r2.Config.rule_query r1.Config.rule_query))
     || String.compare r1.Config.rule_id r2.Config.rule_id > 0)

let redundant_rules cfg =
  let rules = cfg.Config.rules in
  List.filter_map
    (fun r1 ->
      match List.find_opt (fun r2 -> covered_by r1 r2) rules with
      | Some r2 -> Some { redundant = r1; covered_by = r2 }
      | None -> None)
    rules

let minimise cfg =
  let redundant = redundant_rules cfg in
  let is_redundant r =
    List.exists
      (fun { redundant = dead; _ } ->
        String.equal dead.Config.rule_id r.Config.rule_id)
      redundant
  in
  { cfg with Config.rules = List.filter (fun r -> not (is_redundant r)) cfg.Config.rules }

let pp_redundancy ppf { redundant; covered_by } =
  Fmt.pf ppf "rule %s is redundant: contained in rule %s" redundant.Config.rule_id
    covered_by.Config.rule_id

let head_rel (r : Config.rule_decl) =
  r.Config.rule_query.Codb_cq.Query.head.Codb_cq.Atom.rel

let feeds (a : Config.rule_decl) (b : Config.rule_decl) =
  String.equal a.Config.importer b.Config.source
  && List.mem (head_rel a) (Codb_cq.Query.body_relations b.Config.rule_query)

let dependency_edges cfg =
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b -> if feeds a b then Some (a.Config.rule_id, b.Config.rule_id) else None)
        cfg.Config.rules)
    cfg.Config.rules

(* Tarjan's strongly-connected-components algorithm over the rule
   dependency graph. *)
let cyclic_components cfg =
  let edges = dependency_edges cfg in
  let successors id =
    List.filter_map (fun (a, b) -> if String.equal a id then Some b else None) edges
  in
  let ids = List.map (fun r -> r.Config.rule_id) cfg.Config.rules in
  let index = Hashtbl.create 16 in
  let lowlink = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stack = ref [] in
  let next_index = ref 0 in
  let components = ref [] in
  let rec strong_connect v =
    Hashtbl.replace index v !next_index;
    Hashtbl.replace lowlink v !next_index;
    incr next_index;
    stack := v :: !stack;
    Hashtbl.replace on_stack v ();
    (* every [find] below reads [v] or a [w] already entered: entering
       a vertex sets its [index] and [lowlink] together *)
    let visit w =
      if not (Hashtbl.mem index w) then begin
        strong_connect w;
        Hashtbl.replace lowlink v
          (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
      end
      else if Hashtbl.mem on_stack w then
        Hashtbl.replace lowlink v (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
    in
    List.iter visit (successors v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      (* v is the root of a component: pop it off the stack *)
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            Hashtbl.remove on_stack w;
            if String.equal w v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong_connect v) ids;
  let self_loop = function
    | [ v ] -> List.exists (fun (a, b) -> String.equal a v && String.equal b v) edges
    | _ :: _ :: _ -> true
    | [] -> false
  in
  let nontrivial = List.filter self_loop !components in
  let sorted = List.map (List.sort String.compare) nontrivial in
  List.sort (fun c1 c2 -> compare (List.nth_opt c1 0) (List.nth_opt c2 0)) sorted
