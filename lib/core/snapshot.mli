(** Immutable MVCC snapshots of committed sign epochs.

    The paper's materialized-accessibility design makes a read cheap
    but ties it to the mutable sign/bitmap store, so a mutation epoch
    blocks the read path.  This module breaks that coupling: every
    committed [sign_epoch] becomes an {e immutable versioned snapshot}
    — a frozen copy-on-write view of the document, a frozen {!Cam}
    over its signs, lazily built per-role maps over its bitmaps, and
    the decision cache every request is memoized in, all keyed by the
    epoch that committed them.  Readers {e pin} a snapshot
    (refcounted) and answer requests
    from it for as long as they like while the engine builds the next
    epoch against its own working set; a snapshot is {e reclaimed}
    (its references dropped, so the GC frees its private records) only
    once it is no longer current {e and} its pin count has returned to
    zero.

    {2 Structural sharing}

    {!capture} freezes the live tree in O(1) ({!Xmlac_xml.Tree.freeze})
    instead of deep-copying it: consecutive snapshots share every node
    record the intervening epoch did not touch, the CAM's persistent
    entry map is shared wholesale, and memoized decisions plus
    per-role maps are {e carried forward} whenever the epoch's change
    set provably cannot have moved them.  Publish cost is therefore
    O(nodes changed in the epoch), not O(document), and a thousand
    pinned epochs of a large document cost little more than one copy
    plus the sum of their change sets.  Freeing is the OCaml GC's: a
    shared record is collected exactly when the last view holding it
    is reclaimed, so a crash in the publish or reclaim path can never
    corrupt a pinned neighbor.

    {2 The one read path}

    Every request is answered through a snapshot's decision cache.
    {!request} evaluates on the frozen document; {!Engine.request}
    evaluates on the live stores but checks accessibility against the
    current snapshot's frozen maps ({!accessible}) and memoizes there
    too ({!cached}, {!remember}), under keys that carry the
    store.  A memo computed against a live store is never carried
    forward: the native tree's change set does not describe the
    relational stores.

    The MVCC invariants (DESIGN.md §10):

    {ul
    {- {e Readers never observe a partial epoch.}  A snapshot is
       captured only from a committed materialization — the engine
       publishes after [commit_op], never inside an open epoch — and
       nothing mutates it afterwards ([Tree] refuses writes on frozen
       views), so every decision a pinned reader computes is the
       decision the committed epoch would have given.}
    {- {e Reclaim only at refcount 0.}  [publish] retires the previous
       current snapshot instead of dropping it while pins remain;
       [unpin] reclaims a retired snapshot exactly when its last pin
       is released.}
    {- {e A pinned snapshot's view is immutable even while successor
       epochs mutate shared structure.}  The first write of each
       generation to a shared record path-copies it, so frozen views
       keep the records they froze.}}

    A snapshot is safe to share across OCaml domains: the document
    view and the single-subject map are frozen at capture, and the two
    mutable members (the per-role map table and the decision cache)
    are guarded by a private mutex.  Registry operations cross the
    fault points [snapshot.publish] (before the new snapshot is
    installed) and [snapshot.reclaim] (after an old snapshot is
    dropped), so the crash sweeps can kill the writer at both
    boundaries and verify pinned readers never notice; every cache
    miss crosses [snapshot.read]. *)

type t
(** One immutable snapshot of a committed epoch. *)

val capture :
  ?annotated:bool ->
  ?bits_annotated:bool ->
  ?prev:t ->
  epoch:int ->
  policy:Policy.t ->
  cam:Cam.t ->
  metrics:Xmlac_util.Metrics.t ->
  Xmlac_xml.Tree.t ->
  t
(** [capture ~epoch ~policy ~cam ~metrics doc] freezes the committed
    materialization: an O(1) {!Xmlac_xml.Tree.freeze} of [doc] (signs
    and bitmaps included — [doc] moves to its next generation and
    path-copies on its next writes) and an O(1) {!Cam.freeze} of
    [cam] (valid for the view because entries are keyed by node id).

    [prev] (normally the registry's current snapshot) enables
    carry-forward: memoized decisions whose examined nodes the epoch
    left untouched, rewrite-lane decisions after any non-structural
    epoch, and the per-role maps after an epoch touching no bitmap
    all migrate into the new snapshot instead of cold-starting.
    Carry is gated on provenance (same tree family, exactly the next
    generation, physically equal policy) and silently skipped
    otherwise.

    [annotated] / [bits_annotated] (both default [true]) record
    whether the frozen signs / role bitmaps carried a committed
    annotation epoch at capture — {!request}'s auto lane routes a
    never-annotated frozen document through the rewrite lane instead
    of its default-sign CAM.  [metrics] receives the snapshot's
    lifetime counters ([snapshot.captures], [snapshot.reads],
    [snapshot.cache.*], [snapshot.role_cam_builds],
    [snapshot.cache.carried]).
    @raise Invalid_argument when [doc] is itself a frozen view. *)

val capture_full :
  ?annotated:bool ->
  ?bits_annotated:bool ->
  epoch:int ->
  policy:Policy.t ->
  cam:Cam.t ->
  metrics:Xmlac_util.Metrics.t ->
  Xmlac_xml.Tree.t ->
  t
(** The pre-sharing capture: a deep [Tree.copy] of the document,
    O(nodes), sharing nothing with the live tree or other snapshots.
    Kept as the equivalence baseline ([test_mvcc]'s COW ≡ full-copy
    property, the [exp_snapshot] bench's full-copy lane); the engine
    always uses {!capture}. *)

val epoch : t -> int
(** The committed [sign_epoch] this snapshot captures. *)

val document : t -> Xmlac_xml.Tree.t
(** The frozen document view.  Mutating it raises
    [Invalid_argument]. *)

val cam : t -> Cam.t
(** The frozen single-subject accessibility map. *)

val annotated : t -> bool
(** Whether the frozen signs carried a committed annotation epoch at
    capture. *)

val bits_annotated : t -> bool
(** Likewise for the frozen role bitmaps. *)

val pins : t -> int
(** Current pin count (readers holding this snapshot). *)

val cow : t -> bool
(** Whether this snapshot shares structure ({!capture}) rather than
    owning a deep copy ({!capture_full}). *)

val cached_decisions : t -> int
(** Memoized decisions currently held (carried entries included). *)

(** What a memoized decision read, which decides whether it may be
    carried into the next epoch's snapshot. *)
type source =
  | Frozen of int list
      (** The frozen document: the answers plus their ancestors, every
          id a CAM lookup can have read ([[]] for the rewrite lane).
          Carried exactly when the epoch touched none of them and
          changed no structure. *)
  | Live
      (** A live store.  The native tree's change set does not describe
          a relational epoch or an {!Engine.refresh}, so such a memo is
          never carried. *)

type memo = { source : source; decision : Requester.decision }
(** A memoized decision plus what it read. *)

val decision_cache : t -> memo Decision_cache.t
(** The snapshot's decision cache, for observability ([length] /
    [capacity] / [evictions]).  Frozen and live reads share its
    {!Decision_cache.default_capacity} entries.  Mutate it only
    through {!request} and {!remember}. *)

val role_cam : t -> string -> Cam.t
(** The per-role map over the frozen bitmap slice for [role], built
    lazily on first use ([snapshot.role_cam_builds]) and carried into
    the next snapshot when its epoch touches no bitmap.
    @raise Invalid_argument on an unknown role. *)

val accessible : ?subject:string -> t -> absent:(int -> bool) -> int -> bool
(** [accessible ?subject t ~absent] is the snapshot's accessibility
    check: an id's effective sign under the frozen CAM (or the role's
    map), and [absent id] for an id the frozen document does not
    hold.
    @raise Invalid_argument on an unknown role. *)

type key
(** A decision-cache key. *)

val key : ?store:string -> ?subject:string -> Rewrite.lane -> string -> key
(** [key ?store ?subject lane query] keys a read of [query] through
    [lane], as [subject], apart from every other lane and subject.  A
    live read names its [store]; the snapshot's own frozen reads
    ({!request}) name none, which keeps them apart from every live
    read. *)

val cached : t -> key -> Requester.decision option
(** The decision memoized under [key], if any. *)

val remember : t -> key -> (unit -> memo) -> Requester.decision
(** [remember t key compute] is the miss path of every read, frozen or
    live: it crosses the [snapshot.read] fault point, runs [compute]
    and memoizes its result under [key].  Whether the memo is carried
    into the next snapshot follows its {!source}. *)

val resolve_lane :
  ?subject:string -> ?lane:Rewrite.lane -> t -> Rewrite.lane * string
(** The lane {!request} would answer through, with the reason
    ("forced", "annotated at capture", "never annotated at capture").
    Never returns {!Rewrite.Auto}. *)

val request :
  ?subject:string -> ?lane:Rewrite.lane -> t -> string -> Requester.decision
(** [request ?subject t query] answers the all-or-nothing request
    from the snapshot alone: evaluate [query] on the frozen document,
    check accessibility against the frozen CAM ([?subject]: a lazily
    built per-role map over the frozen bitmaps), and memoize the
    decision in the snapshot's cache (keyed by the effective lane;
    the engine's live reads use keys of their own).  Full fidelity at
    the snapshot's epoch — byte-identical to what the live engine
    decided when this epoch was current — and never touches the live
    stores, so it cannot block on (or be blocked by) the writer.
    Crosses
    {!Xmlac_util.Deadline.checkpoint}s through [Cam.lookup], so it
    honours a caller-installed budget.

    [~lane] (default {!Rewrite.Auto}) selects the enforcement lane as
    in {!Engine.request}: [Auto] picks the materialized lane iff the
    layer the request reads was annotated at capture
    ({!resolve_lane}); the rewrite lane compiles the request against
    the frozen policy and evaluates it on the frozen tree with no
    sign or bitmap read — how cold documents are served from pinned
    sessions.
    @raise Invalid_argument on an unparsable query or unknown role. *)

(** {1 Registry: publish / pin / reclaim}

    The engine owns one registry; it holds the {e current} snapshot
    (the latest committed epoch) plus any {e retired} ones still kept
    alive by pins. *)

type registry

val create_registry : metrics:Xmlac_util.Metrics.t -> unit -> registry
(** An empty registry; nothing is current until the first
    {!publish}. *)

val publish : registry -> t -> unit
(** Install [t] as the current snapshot.  The previous current is
    reclaimed immediately when unpinned, and retired (kept for its
    readers) otherwise.  Crosses [snapshot.publish] before the swap
    and [snapshot.reclaim] after a reclaim, both outside the registry
    lock. *)

val current : registry -> t option
val current_epoch : registry -> int option
(** Epoch of the current snapshot; [None] before the first publish. *)

val pin : registry -> t
(** Pin and return the current snapshot.  The caller owes exactly one
    {!unpin}.
    @raise Invalid_argument before the first {!publish}. *)

val unpin : registry -> t -> unit
(** Release one pin.  A retired snapshot whose pin count reaches zero
    is reclaimed on the spot (the invariant: reclaim only at refcount
    0, and only of non-current snapshots), crossing
    [snapshot.reclaim].
    @raise Invalid_argument when [t] is not pinned. *)

(** {1 Observability}

    Lifetime counters for [xmlacctl explain]/[serve] and the
    concurrent bench's reclaim-lag figure. *)

val live : registry -> int
(** Snapshots currently reachable: current (if any) plus retired. *)

val retired : registry -> int
(** Retired snapshots still pinned by readers. *)

val published : registry -> int
(** Lifetime publishes. *)

val reclaimed : registry -> int
(** Lifetime reclaims. *)

val max_retired : registry -> int
(** High-water mark of the retired list — the reclaim lag: how far
    readers have trailed the writer at worst. *)

val pp_registry : Format.formatter -> registry -> unit
(** Deterministic one-line summary (no addresses, no times) — safe
    for golden CLI transcripts. *)
