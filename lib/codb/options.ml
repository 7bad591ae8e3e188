(* What a crash destroys.  Every crash is honest: [Dur_volatile] loses
   everything volatile and restart re-fetches the world; [Dur_wal]
   also keeps a write-ahead log and snapshots to recover from. *)
type durability = Dur_volatile | Dur_wal

(* E9's three rows: no cache, exact hits only, containment-aware hits. *)
type query_cache = Cache_off | Cache_exact | Cache_containment

type t = {
  use_sent_cache : bool;
  use_subsumption_dedup : bool;
  naive_delta : bool;
  latency : float;
  byte_cost : float;
  query_cache : query_cache;
  pushdown : bool;
  fault_seed : int;
  drop_prob : float;
  dup_prob : float;
  jitter : float;
  drop_budget : int;
  flap_plan : (string * string * float * float) list;
  crash_plan : (string * float * float option) list;
  ack_timeout : float;
  max_retries : int;
  subscriptions : bool;
  durability : durability;
  wal_dir : string option;
  fsync : bool;
}

let default =
  {
    use_sent_cache = true;
    use_subsumption_dedup = true;
    naive_delta = false;
    latency = 0.001;
    byte_cost = 0.000001;
    query_cache = Cache_off;
    pushdown = false;
    fault_seed = 0;
    drop_prob = 0.0;
    dup_prob = 0.0;
    jitter = 0.0;
    drop_budget = max_int;
    flap_plan = [];
    crash_plan = [];
    ack_timeout = 0.0;
    max_retries = 4;
    subscriptions = false;
    durability = Dur_volatile;
    wal_dir = None;
    fsync = false;
  }

let validate t =
  let errors = ref [] in
  let reject message = errors := message :: !errors in
  if t.latency < 0.0 then
    reject (Printf.sprintf "options: latency must be >= 0 (got %g)" t.latency);
  if t.byte_cost < 0.0 then
    reject (Printf.sprintf "options: byte_cost must be >= 0 (got %g)" t.byte_cost);
  let prob name v =
    if v < 0.0 || v > 1.0 then
      reject (Printf.sprintf "options: %s must be in [0,1] (got %g)" name v)
  in
  prob "drop_prob" t.drop_prob;
  prob "dup_prob" t.dup_prob;
  if t.jitter < 0.0 then
    reject (Printf.sprintf "options: jitter must be >= 0 (got %g)" t.jitter);
  if t.drop_budget < 0 then
    reject (Printf.sprintf "options: drop_budget must be >= 0 (got %d)" t.drop_budget);
  List.iter
    (fun (a, b, down, up) ->
      if String.equal a b then
        reject (Printf.sprintf "options: flap_plan endpoints must differ (got %s)" a);
      if down < 0.0 || up <= down then
        reject
          (Printf.sprintf
             "options: flap_plan %s-%s must close at >= 0 and reopen later (got %g, %g)"
             a b down up))
    t.flap_plan;
  List.iter
    (fun (name, at, restart) ->
      if at < 0.0 then
        reject (Printf.sprintf "options: crash_plan %s must crash at >= 0 (got %g)" name at);
      match restart with
      | Some r when r <= at ->
          reject
            (Printf.sprintf
               "options: crash_plan %s must restart after it crashes (got %g, %g)" name
               at r)
      | Some _ | None -> ())
    t.crash_plan;
  if t.ack_timeout < 0.0 then
    reject (Printf.sprintf "options: ack_timeout must be >= 0 (got %g)" t.ack_timeout);
  if t.max_retries < 0 then
    reject (Printf.sprintf "options: max_retries must be >= 0 (got %d)" t.max_retries);
  (match t.wal_dir with
  | Some "" -> reject "options: wal_dir must not be empty"
  | Some _ when t.durability <> Dur_wal ->
      reject "options: wal_dir requires durability = Dur_wal"
  | Some _ | None -> ());
  if t.fsync && t.wal_dir = None then
    reject "options: fsync requires wal_dir (the in-memory backend has no disk)";
  match List.rev !errors with [] -> Ok () | errors -> Error errors

let faults_enabled t =
  t.drop_prob > 0.0 || t.dup_prob > 0.0 || t.jitter > 0.0 || t.flap_plan <> []
  || t.crash_plan <> []

let reliable t = t.ack_timeout > 0.0

(* Retransmission timeout of the [attempts]-th try: binary exponential
   backoff, capped so a large [max_retries] cannot push timers into
   astronomically distant simulated times. *)
let rto t attempts = t.ack_timeout *. Float.min 64.0 (2.0 ** float_of_int attempts)

let retry_span t =
  let rec sum acc i = if i > t.max_retries then acc else sum (acc +. rto t i) (i + 1) in
  sum 0.0 0

(* Floored so the stall watchdog stays meaningful under fire-and-forget
   transport (ack_timeout = 0 with faults injected): a silent window of
   zero would expire every sub-request before its first response could
   possibly arrive. *)
let failure_deadline t = Float.max 0.25 (retry_span t +. (2.0 *. t.ack_timeout))
