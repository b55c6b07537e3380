module Fault = Xmlac_util.Fault
module Deadline = Xmlac_util.Deadline
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
module Tree = Xmlac_xml.Tree
module Engine = Xmlac_core.Engine
module Requester = Xmlac_core.Requester
module Cam = Xmlac_core.Cam
module Policy = Xmlac_core.Policy
module Subject = Xmlac_core.Subject

type error_class = Transient | Timeout | Corrupt | Fatal

let error_class_to_string = function
  | Transient -> "transient"
  | Timeout -> "timeout"
  | Corrupt -> "corrupt"
  | Fatal -> "fatal"

type error = {
  class_ : error_class;
  site : string;
  attempts : int;
  message : string;
}

let pp_error ppf e =
  Format.fprintf ppf "%s at %s (attempts %d): %s"
    (error_class_to_string e.class_) e.site e.attempts e.message

type config = {
  deadline_ticks : int option;
  deadline_seconds : float option;
  max_retries : int;
  backoff_base_s : float;
  backoff_max_s : float;
  sleep : float -> unit;
  breaker : Breaker.config;
  queue_capacity : int;
  seed : int64;
}

let default_config =
  {
    deadline_ticks = None;
    deadline_seconds = None;
    max_retries = 2;
    backoff_base_s = 0.005;
    backoff_max_s = 0.1;
    sleep = (fun _ -> ());
    breaker = Breaker.default_config;
    queue_capacity = 16;
    seed = 1L;
  }

module Snapshot = Xmlac_core.Snapshot

type mutation =
  | Update of string
  | Insert of { at : string; fragment : Tree.t }

type mutation_outcome =
  | Applied of (Engine.backend_kind * Xmlac_core.Reannotator.stats) list
  | Recovered
  | Queued of int

type t = {
  eng : Engine.t;
  config : config;
  breakers : (Engine.backend_kind * Breaker.t) list;
  rng : Prng.t;
  mutable queue : mutation list;  (* oldest first; bounded, tiny *)
}

let create ?(config = default_config) eng =
  if config.max_retries < 0 then invalid_arg "Serve.create: max_retries < 0";
  if config.queue_capacity < 0 then
    invalid_arg "Serve.create: queue_capacity < 0";
  let metrics = Engine.metrics eng in
  let breakers =
    List.map
      (fun kind ->
        let name = Engine.backend_kind_to_string kind in
        (kind, Breaker.create ~metrics ~name config.breaker))
      Engine.all_backend_kinds
  in
  {
    eng;
    config;
    breakers;
    rng = Prng.create ~seed:config.seed;
    queue = [];
  }

let engine t = t.eng
let config t = t.config
let breaker t kind = List.assoc kind t.breakers
let metrics t = Engine.metrics t.eng
let queued t = List.length t.queue
let refresh_snapshot t = ignore (Engine.read_snapshot t.eng)

(* ---------- error classification ---------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let classify = function
  | Fault.Transient site ->
      (Transient, site, "transient fault at " ^ site)
  | Deadline.Expired label -> (Timeout, label, "deadline budget exhausted")
  | Fault.Crash site -> (Fatal, site, "crash at " ^ site)
  | Failure msg
    when contains msg "checksum" || contains msg "torn"
         || contains msg "corrupt" ->
      (Corrupt, "storage", msg)
  | Invalid_argument msg -> (Fatal, "invalid-argument", msg)
  | exn -> (Fatal, "exception", Printexc.to_string exn)

let error_of_exn ?(attempts = 0) exn =
  let class_, site, message = classify exn in
  { class_; site; attempts; message }

(* ---------- self-healing ---------- *)

(* While the engine owes a restart ({!Engine.needs_restart}), nothing
   works until recovery runs — play it before touching the engine. *)
let heal t =
  if Engine.needs_restart t.eng then begin
    Metrics.incr (metrics t) "serve.auto_recoveries";
    ignore (Engine.recover t.eng)
  end

(* ---------- requests ---------- *)

type served = Live | Degraded | Pinned

type reply = {
  decision : Requester.decision;
  served : served;
  attempts : int;
}

let backoff config rng n =
  let cap =
    min config.backoff_max_s
      (config.backoff_base_s *. (2.0 ** float_of_int (n - 1)))
  in
  config.sleep (Prng.float rng (max cap 0.0))

(* [query] answered from [snap] under the deadline, with transient
   retries — the loop every non-live read shares.  Never consults the
   live stores or the breakers: a snapshot read cannot block on the
   writer, and its outcome says nothing about backend health. *)
let snapshot_answer ~served ?subject ?lane t snap query =
  let m = metrics t in
  let attempts = ref 0 in
  match
    Deadline.with_budget ~label:"snapshot"
      ?ticks:t.config.deadline_ticks ?seconds:t.config.deadline_seconds
      (fun () ->
        let rec go n =
          attempts := n;
          try Snapshot.request ?subject ?lane snap query
          with Fault.Transient _ when n <= t.config.max_retries ->
            Metrics.incr m "serve.retries";
            backoff t.config t.rng n;
            go (n + 1)
        in
        go 1)
  with
  | decision -> Ok { decision; served; attempts = !attempts }
  | exception exn ->
      let err = error_of_exn ~attempts:!attempts exn in
      Metrics.incr m "serve.errors";
      Metrics.incr m ("serve.errors." ^ error_class_to_string err.class_);
      Error err

let snapshot_request ?subject ?lane t snap query =
  Metrics.incr (metrics t) "serve.pinned";
  snapshot_answer ~served:Pinned ?subject ?lane t snap query

(* The fail-closed read gate.  The engine's read snapshot answers only
   while it can be trusted to be the committed materialization: no
   epoch open, no crash pending recovery, its catch-up publish
   succeeded, and the caller's own condition ([admit]) holds.
   Otherwise every query is denied — a gated read can only deny more
   than the committed state would, never grant more. *)
let gated_request ?subject ?lane ~admit ~served ~denials t query =
  let snap =
    if (not admit) || Engine.needs_restart t.eng then
      None
    else
      match Engine.read_snapshot t.eng with
      | snap -> Some snap
      | exception (Fault.Transient _ | Fault.Crash _) -> None
  in
  match snap with
  | Some snap -> snapshot_answer ~served ?subject ?lane t snap query
  | None ->
      let m, counter = denials in
      Metrics.incr m counter;
      Ok
        {
          decision = Requester.Denied { blocked = 0 };
          served = Degraded;
          attempts = 0;
        }

let degraded_request ?subject ?lane t query =
  let m = metrics t in
  Metrics.incr m "serve.degraded";
  Option.iter (fun role -> Metrics.incr m ("serve.degraded." ^ role)) subject;
  gated_request ?subject ?lane ~admit:true ~served:Degraded
    ~denials:(m, Metrics.stale_snapshot_denials) t query

let live_request ?subject ?lane t kind br query =
  let m = metrics t in
  let attempts = ref 0 in
  match
    Deadline.with_budget
      ~label:("request." ^ Engine.backend_kind_to_string kind)
      ?ticks:t.config.deadline_ticks ?seconds:t.config.deadline_seconds
      (fun () ->
        let rec go n =
          attempts := n;
          try Engine.request ?subject ?lane t.eng kind query
          with Fault.Transient _ when n <= t.config.max_retries ->
            Metrics.incr m "serve.retries";
            backoff t.config t.rng n;
            go (n + 1)
        in
        go 1)
  with
  | decision ->
      Breaker.record br ~ok:true;
      Ok { decision; served = Live; attempts = !attempts }
  | exception exn ->
      let err = error_of_exn ~attempts:!attempts exn in
      (* A failure while compiling the rewrite lane's plans happens
         before the store is touched, so — like a parse error — it
         says nothing about backend health and must not feed the
         breaker. *)
      if err.site <> "rewrite.compile" then Breaker.record br ~ok:false;
      Metrics.incr m "serve.errors";
      Metrics.incr m ("serve.errors." ^ error_class_to_string err.class_);
      Error err

let known_role t role = Subject.mem (Policy.subjects (Engine.policy t.eng)) role

let request ?subject ?lane t kind query =
  Metrics.time (metrics t) "serve.request" (fun () ->
      match Requester.parse_or_fail query with
      | exception Invalid_argument msg ->
          (* Says nothing about backend health: don't feed the
             breaker. *)
          Metrics.incr (metrics t) "serve.parse_errors";
          Error { class_ = Fatal; site = "parse"; attempts = 0; message = msg }
      | _expr -> (
          match subject with
          | Some role when not (known_role t role) ->
              (* Like a parse error: a caller-side mistake, not a
                 backend health signal — and checked up front so the
                 degraded path cannot trip over it either. *)
              Metrics.incr (metrics t) "serve.unknown_roles";
              Error
                {
                  class_ = Fatal;
                  site = "subject";
                  attempts = 0;
                  message = Printf.sprintf "unknown role %S" role;
                }
          | _ -> (
              heal t;
              let br = breaker t kind in
              match Breaker.admit br with
              | `Reject -> degraded_request ?subject ?lane t query
              | `Admit -> live_request ?subject ?lane t kind br query)))

(* ---------- mutations ---------- *)

let some_breaker_open t =
  List.exists (fun (_, br) -> Breaker.state br = Breaker.Open) t.breakers

let record_all t ~ok =
  List.iter (fun (_, br) -> Breaker.record br ~ok) t.breakers

(* Attribute a failure to the backend its fault site names; a site
   that names no backend (wal, cam, ...) counts against all of them —
   the mutation path crosses every store. *)
let record_failure t site =
  let prefixed p =
    let p = p ^ "." in
    String.length site >= String.length p
    && String.sub site 0 (String.length p) = p
  in
  let kind =
    if prefixed "native" then Some Engine.Native
    else if prefixed "row" then Some Engine.Row_sql
    else if prefixed "column" then Some Engine.Column_sql
    else None
  in
  match kind with
  | Some k -> Breaker.record (breaker t k) ~ok:false
  | None -> record_all t ~ok:false

let enqueue t mu =
  let m = metrics t in
  if List.length t.queue >= t.config.queue_capacity then begin
    Metrics.incr m "serve.queue_rejected";
    Error
      {
        class_ = Transient;
        site = "serve.queue";
        attempts = 0;
        message = "degraded and mutation queue full";
      }
  end
  else begin
    t.queue <- t.queue @ [ mu ];
    Metrics.incr m "serve.queued";
    Ok (Queued (List.length t.queue))
  end

let apply_mutation t = function
  | Update q -> Engine.update t.eng q
  | Insert { at; fragment } -> Engine.insert t.eng ~at ~fragment

let run_mutation t mu =
  let m = metrics t in
  let rec go n =
    heal t;
    let since = Engine.sign_epoch t.eng in
    match
      Deadline.with_budget ~label:"mutation" ?ticks:t.config.deadline_ticks
        ?seconds:t.config.deadline_seconds
        (fun () -> apply_mutation t mu)
    with
    | stats ->
        record_all t ~ok:true;
        Ok (Applied stats)
    | exception exn -> (
        let err = error_of_exn ~attempts:n exn in
        if Engine.needs_restart t.eng then
          Metrics.incr m "serve.auto_recoveries";
        match Engine.settle t.eng ~since with
        | Engine.Applied ->
            (* Committed anyway: recovery rolled it forward, or the
               fault hit past the commit point.  Retrying would apply
               it twice. *)
            Metrics.incr m "serve.recovered_mutations";
            record_failure t err.site;
            Ok Recovered
        | Engine.Consumed | Engine.Untouched
          when err.class_ = Transient && n <= t.config.max_retries ->
            Metrics.incr m "serve.retries";
            backoff t.config t.rng n;
            go (n + 1)
        | Engine.Consumed | Engine.Untouched ->
            record_failure t err.site;
            Metrics.incr m "serve.errors";
            Metrics.incr m ("serve.errors." ^ error_class_to_string err.class_);
            Error err)
  in
  go 1

let mutate t mu =
  Metrics.time (metrics t) "serve.mutate" (fun () ->
      heal t;
      if some_breaker_open t then enqueue t mu else run_mutation t mu)

let update t q = mutate t (Update q)
let insert t ~at ~fragment = mutate t (Insert { at; fragment })

let drain t =
  heal t;
  let rec go acc =
    if some_breaker_open t then List.rev acc
    else
      match t.queue with
      | [] -> List.rev acc
      | mu :: rest ->
          t.queue <- rest;
          let r = run_mutation t mu in
          go ((mu, r) :: acc)
  in
  go []

(* ---------- health ---------- *)

type health = {
  breakers : (Engine.backend_kind * Breaker.state) list;
  trips : int;
  open_epoch : int option;
  queued_mutations : int;
  snapshot_epoch : int;
  committed_epoch : int;
  degraded : bool;
  stale_snapshot_denials : int;
  pinned_snapshots : int;
}

let health (t : t) =
  let states = List.map (fun (k, br) -> (k, Breaker.state br)) t.breakers in
  {
    breakers = states;
    trips = List.fold_left (fun acc (_, br) -> acc + Breaker.trips br) 0
        t.breakers;
    open_epoch = Engine.open_epoch t.eng;
    queued_mutations = List.length t.queue;
    snapshot_epoch = Snapshot.epoch (Engine.current_snapshot t.eng);
    committed_epoch = Engine.sign_epoch t.eng;
    degraded = List.exists (fun (_, s) -> s <> Breaker.Closed) states;
    stale_snapshot_denials =
      Metrics.counter (metrics t) Metrics.stale_snapshot_denials;
    pinned_snapshots = Snapshot.live (Engine.snapshots t.eng);
  }

let healthy h =
  (not h.degraded) && h.open_epoch = None && h.queued_mutations = 0

let pp_health ppf h =
  List.iter
    (fun (k, s) ->
      Format.fprintf ppf "breaker %-10s %s@."
        (Engine.backend_kind_to_string k)
        (Breaker.state_to_string s))
    h.breakers;
  Format.fprintf ppf "trips       %d@." h.trips;
  Format.fprintf ppf "open epoch  %s@."
    (match h.open_epoch with None -> "none" | Some e -> string_of_int e);
  Format.fprintf ppf "queued      %d@." h.queued_mutations;
  Format.fprintf ppf "snapshot    epoch %d (committed %d)@." h.snapshot_epoch
    h.committed_epoch;
  Format.fprintf ppf "snapshots   %d live, %d stale denial%s@."
    h.pinned_snapshots h.stale_snapshot_denials
    (if h.stale_snapshot_denials = 1 then "" else "s");
  Format.fprintf ppf "status      %s@."
    (if healthy h then "healthy"
     else if h.degraded then "degraded"
     else "recovering")
