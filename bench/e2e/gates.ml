(* Correctness gates, checked untimed after the measured passes.  The
   specification is the semantics of Franconi et al., "A Robust
   Logical and Computational Characterisation of P2P Database
   Systems": the update fix-point is saturated, and certain answers do
   not depend on faults.  Each gate returns the list of violations;
   an empty list passes. *)

module System = Codb_core.System
module Node = Codb_core.Node
module Report = Codb_core.Report
module Wrapper = Codb_core.Wrapper
module Config = Codb_cq.Config
module Query = Codb_cq.Query
module Eval = Codb_cq.Eval
module Tuple = Codb_relalg.Tuple
module Database = Codb_relalg.Database
module Relation = Codb_relalg.Relation

let sorted tuples = List.sort_uniq Tuple.compare tuples

let certain tuples = sorted (Eval.certain tuples)

let subset a b = List.for_all (fun t -> List.exists (Tuple.equal t) b) a

(* No coordination rule derives anything its importer lacks. *)
let saturated sys =
  List.filter_map
    (fun (r : Config.rule_decl) ->
      let source = System.node sys r.Config.source in
      let importer = System.node sys r.Config.importer in
      let head = r.Config.rule_query.Query.head.Codb_cq.Atom.rel in
      let target = Database.relation importer.Node.store head in
      let derivable =
        Wrapper.eval_rule_full ~opts:(System.opts sys) source.Node.store r
      in
      if List.for_all (Relation.subsumed target) derivable then None
      else Some (Printf.sprintf "rule %s is not saturated" r.Config.rule_id))
    (System.config sys).Config.rules

(* Every update terminated on its own, without the watchdog. *)
let unforced sys uids =
  let snaps = System.snapshots sys in
  let forced = (Report.chaos_report snaps).Report.chr_forced_updates in
  let unfinished =
    List.filter
      (fun uid ->
        match Report.update_report snaps uid with
        | Some r -> not r.Report.ur_all_finished
        | None -> true)
      uids
  in
  (if forced > 0 then [ Printf.sprintf "%d update(s) were forced to terminate" forced ]
   else [])
  @ List.map
      (fun uid -> Printf.sprintf "update %s did not finish" (Codb_core.Ids.string_of_update uid))
      unfinished

(* Query-time answering equals materialised answering on a DAG: the
   certain answers of each query match the asked peer's local answers
   after a global update on a fresh system.  Also returns the wall
   milliseconds of each [System.local_answers] call. *)
let storm_matches (wl : Workloads.t) answered =
  let sys = System.build_exn ~opts:wl.Workloads.opts wl.Workloads.config in
  ignore (System.run_update sys ~initiator:"n0" : Codb_core.Ids.update_id);
  let checked =
    List.map
      (fun (at, query, (o : System.query_outcome)) ->
        let t0 = Unix.gettimeofday () in
        let local = System.local_answers sys ~at query in
        let ms = (Unix.gettimeofday () -. t0) *. 1000. in
        let expected = certain local in
        if List.equal Tuple.equal expected (sorted o.System.qo_certain) then (None, ms)
        else
          ( Some
              (Printf.sprintf "query %s at %s: %d certain answers, materialised %d"
                 (Query.to_string query) at
                 (List.length o.System.qo_certain)
                 (List.length expected)),
            ms ))
      answered
  in
  (List.filter_map fst checked, List.map snd checked)

let certain_store sys name =
  let db = (System.node sys name).Node.store in
  List.map
    (fun rel ->
      (rel, sorted (List.filter (fun t -> not (Tuple.has_null t)) (Database.tuples db rel))))
    (Database.rel_names db)

(* Faults change null identities, never certain facts: stores,
   standing-query answers and query answers agree with the
   fault-free replay once their nulls are set aside.  An incomplete
   query answer must be a subset of the replay's. *)
let chaos_matches ~faulty ~calm =
  let sys, subs, answered = faulty and sys', subs', answered' = calm in
  let stores =
    List.filter_map
      (fun name ->
        if certain_store sys name = certain_store sys' name then None
        else Some (Printf.sprintf "certain store of %s differs from the fault-free replay" name))
      (System.node_names sys)
  in
  let standing =
    List.filter_map
      (fun ((subscriber, id), (_, id')) ->
        let answers s at id = Option.map certain (System.subscription_answers s ~at id) in
        match (answers sys subscriber id, answers sys' subscriber id') with
        | Some a, Some b when List.equal Tuple.equal a b -> None
        | _ ->
            Some
              (Printf.sprintf "standing query %s at %s differs from the fault-free replay" id
                 subscriber))
      (List.combine subs subs')
  in
  let queries =
    List.filter_map
      (fun ((at, _, (o : System.query_outcome)), (_, _, (o' : System.query_outcome))) ->
        let a = sorted o.System.qo_certain and b = sorted o'.System.qo_certain in
        let ok =
          if o.System.qo_complete then List.equal Tuple.equal a b else subset a b
        in
        if ok then None
        else Some (Printf.sprintf "query at %s differs from the fault-free replay" at))
      (List.combine answered answered')
  in
  stores @ standing @ queries
