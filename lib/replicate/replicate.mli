(** Epoch-shipping replication: a leader engine streams committed sign
    epochs over a fault-injectable in-process transport to follower
    engines that apply them atomically and serve pinned snapshot
    reads.

    {2 The stream}

    Every committed leader epoch becomes one {!Frame}: the epoch's
    logical operation, a payload checksum, the leader's post-epoch
    state digest ({!Xmlac_core.Engine.state_checksum}) and — for
    cleanly applied epochs — the Adler-32 of the epoch's row-WAL
    record batch read through the {!Xmlac_reldb.Wal.fold_epochs}
    cursor.  Followers apply frames strictly in stream order through
    {!Xmlac_core.Engine.apply_replica}, so every applied epoch runs
    under the full sign-epoch machinery: journaled writes, WAL
    framing, and a crash recovery that lands pre- or post-epoch, never
    a mix.  After each apply the follower re-derives both digests and
    marks itself {e divergent} on any mismatch — a divergent follower
    stops serving and refuses promotion.

    {2 Robustness}

    The transport is driven by the {!Xmlac_util.Fault} registry
    (points ["repl.ship"], ["repl.recv"], ["repl.apply"],
    ["repl.ack"]) plus seeded per-frame drop / duplicate / reorder /
    torn-frame draws and an explicit per-node partition switch.
    Followers detect gaps and request re-ship (bounded per node,
    jittered backoff, classified through the {!Xmlac_serve.Serve}
    taxonomy); reads pass the serving layer's fail-closed read gate
    ({!Xmlac_serve.Serve.gated_request}), which answers from the
    node's caught-up snapshot only while replication lag is at most
    [lag_threshold] epochs — beyond that (or on divergence, or while
    killed mid-apply) the node fails closed with a blanket denial,
    counted under {!Xmlac_util.Metrics.repl_stale_denials}.  After
    {!kill_leader}, {!promote} turns a fully-applied,
    digest-verified follower into a writable leader. *)

module Engine := Xmlac_core.Engine
module Serve := Xmlac_serve.Serve

type role = Leader | Follower | Deposed

val role_to_string : role -> string

type config = {
  lag_threshold : int;
      (** Serve follower reads while lag (committed - applied) is at
          most this many epochs; beyond it, blanket-deny. *)
  max_reship : int;
      (** Re-ship requests a follower may make without progress before
          it stops asking ([repl.reship_exhausted]). *)
  seed : int64;  (** Seeds transport chaos and backoff jitter. *)
  drop_p : float;  (** Per-frame drop probability. *)
  dup_p : float;  (** Per-frame duplicate probability. *)
  reorder_p : float;  (** Per-frame reorder (swap-newest-two) probability. *)
  torn_p : float;  (** Per-frame torn-payload probability. *)
  serve : Serve.config;
      (** Per-node serving-layer configuration.  The cluster's own
          retries (frame apply, leader op) and re-ship requests also
          take their bound ([max_retries]) and backoff from it, via
          {!Xmlac_serve.Serve.backoff} with jitter from [seed]. *)
}

val default_config : config
(** [lag_threshold = 1], 8 re-ships, seed 1, all chaos probabilities
    0, {!Xmlac_serve.Serve.default_config}. *)

type t

val create :
  ?config:config ->
  ?followers:int ->
  dtd:Xmlac_xml.Dtd.t ->
  policy:Xmlac_core.Policy.t ->
  Xmlac_xml.Tree.t ->
  t
(** A cluster over one document: node 0 is the leader, nodes
    [1..followers] (default 2) are read-only replicas built from the
    same inputs, so universal node ids line up across the cluster by
    construction.  Each node owns a full engine (all three backends)
    and a {!Xmlac_serve.Serve} layer. *)

(** {1 Leader mutations}

    Each committed operation frames one stream epoch. *)

val apply : t -> Engine.shipped_op -> (unit, Serve.error) result
(** Run [op] on the leader ({!Xmlac_core.Engine.apply}).  A failed
    attempt is settled by {!Xmlac_core.Engine.settle}: [Applied]
    frames the operation itself, [Consumed] frames a [Ship_noop] so
    replicas consume the aborted epoch number too, and a transient
    fault is then retried up to the serving config's [max_retries].
    @raise Invalid_argument on [Ship_noop] (noops are synthesized
    internally for aborted epochs, never submitted). *)

val update : t -> string -> (unit, Serve.error) result
val insert :
  t -> at:string -> fragment:Xmlac_xml.Tree.t -> (unit, Serve.error) result

val annotate : t -> Engine.backend_kind -> (unit, Serve.error) result
val annotate_all : t -> (unit, Serve.error) result
val annotate_subjects_all : t -> (unit, Serve.error) result

(** {1 Shipping} *)

val ship : t -> unit
(** Send every framed epoch past each follower's send cursor through
    the chaos transport.  Crosses ["repl.ship"] per frame; a transient
    there is a lost send (re-ship covers), a crash escapes as a leader
    kill. *)

val pump : t -> unit
(** One replication round: heal crashed nodes, {!ship}, then let every
    follower drain its inbox — integrity-check (["repl.recv"]),
    dedup, reorder-buffer, apply in stream order (["repl.apply"]),
    acknowledge (["repl.ack"]), and request re-ship on any gap.  A
    {!Xmlac_util.Fault.Crash} escapes with the killed node's
    [inflight] marker set; the next {!heal} (or {!sync} round)
    resolves it through {!Engine.recover}. *)

val sync : ?rounds:int -> t -> bool
(** Pump until every reachable follower has applied the full stream or
    [rounds] (default 64) are exhausted; crashes inside a round are
    healed at the next.  Returns whether the cluster converged
    (partitioned and divergent nodes are excluded — they cannot). *)

val heal : t -> unit
(** Restart protocol for killed nodes: {!Engine.recover} wherever
    {!Engine.needs_restart} holds, and resolve a node's in-flight
    frame by {!Engine.settle} — applied if it landed [Applied]
    (digest-checked like any apply), re-shipped otherwise. *)

(** {1 Reads} *)

val read :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  node:int ->
  string ->
  (Serve.reply, Serve.error) result
(** Answer [query] through the node's serving layer's read gate
    ({!Xmlac_serve.Serve.gated_request}; deadline, retries, taxonomy),
    leader and follower alike.  The gate reads the node's
    {!Xmlac_core.Engine.read_snapshot} — the snapshot of the epoch the
    node committed, caught up if its publish raised — never just the
    apply cursor, and answers served [Pinned].  A follower over the lag
    threshold or divergent, and any node with an epoch open or a crash
    pending recovery (killed mid-apply), fails closed: blanket denial
    served [Degraded], counted under
    {!Xmlac_util.Metrics.repl_stale_denials}.  A dead or deposed node
    returns a [Fatal] error. *)

val route :
  ?subject:string ->
  ?lane:Xmlac_core.Rewrite.lane ->
  t ->
  string ->
  int * (Serve.reply, Serve.error) result
(** Lag-aware routing: the least-lagged serving follower, else the
    live leader, else a fail-closed blanket denial (node [-1]). *)

(** {1 Failover} *)

val kill_leader : t -> unit
(** Mark the leader dead: it stops shipping and serving.  Its engine
    state is abandoned as a dead process's memory would be. *)

type promotion = { node : int; epoch : int; state_sum : int32 }

val promote : t -> int -> (promotion, string) result
(** Turn follower [node] into a writable leader: run the restart
    protocol ({!heal}), verify the node's state digest against its
    last verified epoch digest, and refuse on any divergence (or while
    the leader is still alive).  On success the stream is truncated to
    the promoted tail, surviving followers re-sync from the new
    leader, and followers that had applied {e past} the promoted tail
    are marked divergent (they hold epochs the new leader never
    committed and fail closed until rebuilt). *)

(** {1 Topology and observability} *)

val committed : t -> int
(** Highest framed stream epoch. *)

val leader_alive : t -> bool
val nodes : t -> int list
val node_role : t -> int -> role
val engine : t -> int -> Engine.t
val leader_engine : t -> Engine.t
val applied : t -> int -> int
val lag : t -> int -> int
val diverged : t -> int -> bool

val set_partitioned : t -> int -> bool -> unit
(** Partition (or reconnect) one follower: while set, every frame
    shipped to it is dropped. *)

val metrics : t -> Xmlac_util.Metrics.t
(** The cluster's replication counters ([repl.framed], [repl.shipped],
    [repl.reshipped], [repl.applied], [repl.rejected],
    [repl.gap_requests], [repl.divergences],
    {!Xmlac_util.Metrics.repl_stale_denials}, …). *)

type node_status = {
  id : int;
  role : role;
  applied_epoch : int;
  node_lag : int;
  node_diverged : bool;
  node_serving : bool;
}

val status : t -> node_status list

val pp_status : Format.formatter -> t -> unit
(** Deterministic, time-free — safe for golden CLI transcripts. *)
