(** The resilient serving layer: every request and mutation reaches
    the {!Xmlac_core.Engine} through this module, which adds the four
    ingredients the bare engine deliberately omits —

    {ul
    {- {e deadlines}: each live call runs under a cooperative
       {!Xmlac_util.Deadline} budget (ticks for deterministic tests,
       seconds for wall-clock), checked at the evaluation checkpoints
       threaded through [Requester] and [Cam];}
    {- {e typed errors}: raw exceptions never escape — every failure
       is classified ({!error_class}) and returned as data, so callers
       can tell a retryable blip from corrupt storage;}
    {- {e retries}: transient faults ({!Xmlac_util.Fault.Transient})
       are retried with jittered exponential backoff, bounded by
       [max_retries];}
    {- {e circuit breaking + fail-closed degradation}: each backend
       owns a {!Breaker}; while one is open its requests go through
       the {e read gate} ({!gated_request}), which answers from the
       engine's {!Xmlac_core.Engine.read_snapshot} — the committed
       materialization, caught up — and denies everything when that
       snapshot cannot be trusted.  Mutations queue (bounded) or are
       rejected.  A degraded answer can only {e deny} more than the
       healthy path would — never grant more (the fail-closed
       invariant the soak tests replay under seeded fault
       schedules).}}

    The layer keeps no snapshot of its own: degraded and replica
    reads pass the one read gate, and live reads pick their snapshot
    by the same engine rule.

    The layer is also the concurrent front end's toolbox:
    {!snapshot_request} answers from {e any} pinned snapshot — the
    {!Session} read path — under the same deadline and retry
    machinery, without ever touching the live stores or the breakers,
    so worker domains running pinned reads can never block on (or be
    corrupted by) the writer's next epoch.

    The layer also self-heals: while the engine owes a restart
    ({!Xmlac_core.Engine.needs_restart}: an open epoch, a poisoned
    fault registry, a dangling WAL epoch), the next call through the
    layer runs {!Xmlac_core.Engine.recover} before doing anything
    else.  A failed mutation's outcome is the engine's
    {!Xmlac_core.Engine.settle} verdict: [Applied] is reported as
    {!mutation_outcome.Recovered} — committed, just not on the first
    try — and anything else is retried if transient. *)

module Engine := Xmlac_core.Engine

(** {1 Error taxonomy} *)

type error_class =
  | Transient  (** Retryable: injected fault, queue full. *)
  | Timeout  (** Deadline budget exhausted mid-evaluation. *)
  | Corrupt  (** Storage integrity failure (checksum, torn record). *)
  | Fatal  (** Everything else: parse errors, crashes, bugs. *)

val error_class_to_string : error_class -> string

type error = {
  class_ : error_class;
  site : string;  (** Fault point, deadline label, or ["parse"]. *)
  attempts : int;  (** Live attempts made (0 = never reached engine). *)
  message : string;
}

val pp_error : Format.formatter -> error -> unit

val error_of_exn : ?attempts:int -> exn -> error
(** Classify any exception into the taxonomy above — the same mapping
    the request and mutation paths use internally
    ({!Xmlac_util.Fault.Transient} → [Transient],
    {!Xmlac_util.Deadline.Expired} → [Timeout], checksum/torn/corrupt
    failures → [Corrupt], everything else → [Fatal]).  Exposed so
    other resilience layers (replication's ship/apply loops) retry and
    report with the identical taxonomy. *)

(** {1 Configuration} *)

type config = {
  deadline_ticks : int option;
      (** Checkpoint budget per live call; [None] = unbounded. *)
  deadline_seconds : float option;
      (** Wall-clock budget per live call; [None] = unbounded. *)
  max_retries : int;  (** Retries after the first attempt. *)
  backoff_base_s : float;  (** First retry's maximum backoff. *)
  backoff_max_s : float;  (** Backoff growth cap. *)
  sleep : float -> unit;
      (** Called with each jittered backoff delay.  Defaults to a
          no-op so tests and benches never actually wait. *)
  breaker : Breaker.config;
  queue_capacity : int;
      (** Mutations held while degraded; beyond this they are
          rejected with a [Transient] error. *)
  seed : int64;  (** Seeds the backoff jitter. *)
}

val default_config : config
(** No deadline, [max_retries = 2], base/cap 5ms/100ms, no-op sleep,
    {!Breaker.default_config}, [queue_capacity = 16], seed 1. *)

val backoff : config -> Xmlac_util.Prng.t -> int -> unit
(** [backoff config rng n] sleeps before retry [n]: a jittered delay
    drawn from [rng], at most [backoff_base_s * 2^(n-1)] capped at
    [backoff_max_s].  Replication's retries and re-ship requests use
    it with the cluster's own generator. *)

type t

val create : ?config:config -> Engine.t -> t
(** Wraps an engine: one breaker per backend (named after the
    backend, metrics mirrored into the engine's registry). *)

val engine : t -> Engine.t
val config : t -> config
val breaker : t -> Engine.backend_kind -> Breaker.t

(** {1 Requests} *)

type served =
  | Live  (** Answered by the engine. *)
  | Degraded
      (** Answered by the read gate ({!gated_request}) while a breaker
          is open, or blanket-denied by it. *)
  | Pinned
      (** Answered from a caller-pinned snapshot ({!snapshot_request})
          — the session read path — or, for a replica read, admitted
          by the read gate; full fidelity at that snapshot's epoch. *)

type reply = {
  decision : Xmlac_core.Requester.decision;
  served : served;
  attempts : int;  (** Live attempts behind this reply. *)
}

val request :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  Engine.backend_kind ->
  string ->
  (reply, error) result
(** The resilient request path.  Parse errors — and unknown
    [~subject] roles — return a [Fatal] error without consulting the
    breaker (they say nothing about backend health).  A
    closed/half-open breaker admits the call: it runs under the
    configured deadline with transient retries, and its outcome feeds
    the breaker.  An open breaker rejects it and the reply is served
    [Degraded] through {!gated_request}: the all-or-nothing rule over
    the engine's caught-up read snapshot, or a blanket denial when the
    gate cannot trust it — degradation never grants what the live path
    would deny.

    [~lane] (default [Auto]) selects the enforcement lane, live
    ({!Engine.request}) and degraded ({!Xmlac_core.Snapshot.request})
    alike: the auto lane answers a store with no committed annotation
    epoch through the query-rewrite lane, with zero sign or bitmap
    reads.  A failure at the [rewrite.compile] fault point happens
    before the store is touched, so — like a parse error — it never
    feeds the breaker.

    [~subject] answers for one role: live calls go through
    {!Engine.request}'s subject path, degraded calls through a
    lazily built per-role CAM over the snapshot's bitmaps — the
    fail-closed invariant holds per role (the gate's blanket denial
    included).  Degraded blanket denials are counted under
    {!Xmlac_util.Metrics.stale_snapshot_denials}. *)

val gated_request :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  admit:bool ->
  served:served ->
  denials:Xmlac_util.Metrics.t * string ->
  t ->
  string ->
  (reply, error) result
(** The fail-closed read gate for every read that is not live: answer
    from {!Xmlac_core.Engine.read_snapshot} (deadline, retries, served
    as [served]) only when the caller's condition [admit] holds, the
    engine owes no restart ({!Xmlac_core.Engine.needs_restart}) and
    the catch-up publish succeeds; otherwise [Denied { blocked = 0 }] served [Degraded],
    counted under [denials] (registry, counter name).  Never touches
    the live stores or the breakers, and never recovers. *)

val snapshot_request :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  Xmlac_core.Snapshot.t ->
  string ->
  (reply, error) result
(** The session read path: answer [query] from [snap] — typically one
    the caller pinned with {!Engine.pin_snapshot} — under the
    configured deadline, with transient retries.  Never consults the
    engine, the live stores or the breakers: full fidelity at the
    snapshot's epoch, zero blocking on the writer, and no staleness
    check — an old pinned snapshot {e is} the version the session
    asked to read.  Parse errors and unknown roles surface as [Fatal]
    errors like {!request}'s.  [~lane] selects the enforcement lane as
    in {!request}; the auto lane serves a snapshot captured before any
    annotation epoch through the query-rewrite lane on the frozen
    tree. *)

(** {1 Mutations} *)

type mutation =
  | Update of string  (** Delete update, XPath string. *)
  | Insert of { at : string; fragment : Xmlac_xml.Tree.t }

type mutation_outcome =
  | Applied of (Engine.backend_kind * Xmlac_core.Reannotator.stats) list
      (** Committed on the live path. *)
  | Recovered
      (** The call failed but the operation committed anyway
          ({!Xmlac_core.Engine.settle} said [Applied]: recovery rolled
          it forward, or the fault hit past the commit). *)
  | Queued of int
      (** Held for {!drain} while degraded; payload is the queue
          length after enqueue. *)

val mutate : t -> mutation -> (mutation_outcome, error) result
(** Applies the mutation through every store.  While any breaker is
    open the mutation is queued (or rejected once [queue_capacity] is
    reached).  On the live path a failed attempt is settled by
    {!Xmlac_core.Engine.settle}: [Recovered] when it landed [Applied],
    otherwise a transient fault is retried (at most [max_retries]
    times) and anything else is an error.  A snapshot publish that
    failed after the commit is finished by the next read
    ({!Xmlac_core.Engine.read_snapshot}). *)

val update : t -> string -> (mutation_outcome, error) result
val insert :
  t -> at:string -> fragment:Xmlac_xml.Tree.t ->
  (mutation_outcome, error) result

val queued : t -> int

val drain : t -> (mutation * (mutation_outcome, error) result) list
(** Replays queued mutations in order once no breaker is open.
    Stops early (leaving the rest queued) if a breaker re-opens
    mid-drain; a mutation that fails for its own reasons is reported
    and {e not} re-queued.  Returns the attempted mutations with
    their outcomes; empty while still degraded. *)

(** {1 Health} *)

type health = {
  breakers : (Engine.backend_kind * Breaker.state) list;
  trips : int;  (** Lifetime trips across all breakers. *)
  open_epoch : int option;
  queued_mutations : int;
  snapshot_epoch : int;
      (** Epoch of the engine's current snapshot.  It trails
          [committed_epoch] only while a publish that raised has not
          been caught up; the read gate catches up before answering. *)
  committed_epoch : int;
  degraded : bool;  (** Some breaker is not closed. *)
  stale_snapshot_denials : int;
      (** Lifetime degraded requests the read gate blanket-denied
          ({!Xmlac_util.Metrics.stale_snapshot_denials}). *)
  pinned_snapshots : int;
      (** Snapshots alive in the engine's registry (current +
          retired-but-pinned). *)
}

val health : t -> health
val healthy : health -> bool
(** All breakers closed, no open epoch, queue empty. *)

val pp_health : Format.formatter -> health -> unit
(** Deterministic, time-free — safe for golden CLI transcripts. *)

val refresh_snapshot : t -> unit
(** Finish a snapshot publish that raised
    ({!Xmlac_core.Engine.read_snapshot}).  Never required: every read
    catches up by itself.  @raise Xmlac_util.Fault.Transient when the
    publish fails again. *)
