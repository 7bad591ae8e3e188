(* Deterministic fault injection for the simulated network.

   Every random draw comes from a [Random.State] seeded with the same
   recipe as [Codb_workload.Rng.make] (replicated here rather than
   imported so the network layer stays free of the workload/relalg
   dependency chain).  [verdict] always consumes exactly three draws
   per message, in a fixed order, so the fault schedule is a pure
   function of (seed, message sequence) and two runs with the same
   plan produce byte-identical schedules. *)

type flap = {
  fl_a : Peer_id.t;
  fl_b : Peer_id.t;
  fl_down_at : float;
  fl_up_at : float;
}

type plan = {
  seed : int;
  drop_prob : float;
  dup_prob : float;
  jitter : float;
  drop_budget : int;
  flaps : flap list;
}

type counters = {
  injected_drops : int;
  injected_dups : int;
  injected_flaps : int;
  crashes : int;
  restarts : int;
}

type verdict = {
  v_drop : bool;
  v_dup : bool;
  v_jitter : float;
  v_dup_extra : float;
}

type t = {
  plan : plan;
  rng : Random.State.t;
  mutable f_drops : int;
  mutable f_dups : int;
  mutable f_flaps : int;
  mutable f_crashes : int;
  mutable f_restarts : int;
}

let validate_plan p =
  let errors = ref [] in
  let reject message = errors := message :: !errors in
  let prob name v =
    if v < 0.0 || v > 1.0 then
      reject (Printf.sprintf "fault plan: %s must be in [0,1] (got %g)" name v)
  in
  prob "drop_prob" p.drop_prob;
  prob "dup_prob" p.dup_prob;
  if p.jitter < 0.0 then
    reject (Printf.sprintf "fault plan: jitter must be >= 0 (got %g)" p.jitter);
  if p.drop_budget < 0 then
    reject (Printf.sprintf "fault plan: drop_budget must be >= 0 (got %d)" p.drop_budget);
  List.iter
    (fun f ->
      if Peer_id.equal f.fl_a f.fl_b then
        reject
          (Printf.sprintf "fault plan: flap endpoints must differ (got %s)"
             (Peer_id.to_string f.fl_a));
      if f.fl_down_at < 0.0 then
        reject
          (Printf.sprintf "fault plan: flap down time must be >= 0 (got %g)"
             f.fl_down_at);
      if f.fl_up_at <= f.fl_down_at then
        reject
          (Printf.sprintf "fault plan: flap must reopen after it closes (%g <= %g)"
             f.fl_up_at f.fl_down_at))
    p.flaps;
  match List.rev !errors with [] -> Ok () | errors -> Error errors

let make plan =
  {
    plan;
    rng = Random.State.make [| plan.seed; 0x5eed; plan.seed lxor 0x9e3779b9 |];
    f_drops = 0;
    f_dups = 0;
    f_flaps = 0;
    f_crashes = 0;
    f_restarts = 0;
  }

let plan t = t.plan

let verdict t =
  let p = t.plan in
  (* fixed draw order, all three every time: the stream position per
     message is independent of the verdicts themselves *)
  let drop_draw = Random.State.float t.rng 1.0 in
  let dup_draw = Random.State.float t.rng 1.0 in
  let jitter_draw = Random.State.float t.rng 1.0 in
  let drop = p.drop_prob > 0.0 && drop_draw < p.drop_prob && t.f_drops < p.drop_budget in
  let dup = (not drop) && p.dup_prob > 0.0 && dup_draw < p.dup_prob in
  if drop then t.f_drops <- t.f_drops + 1;
  if dup then t.f_dups <- t.f_dups + 1;
  {
    v_drop = drop;
    v_dup = dup;
    v_jitter = jitter_draw *. p.jitter;
    v_dup_extra = dup_draw *. p.jitter;
  }

let note_flap t = t.f_flaps <- t.f_flaps + 1

let note_crash t = t.f_crashes <- t.f_crashes + 1

let note_restart t = t.f_restarts <- t.f_restarts + 1

let counters t =
  {
    injected_drops = t.f_drops;
    injected_dups = t.f_dups;
    injected_flaps = t.f_flaps;
    crashes = t.f_crashes;
    restarts = t.f_restarts;
  }
