module Tree = Xmlac_xml.Tree
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault
module Iset = Set.Make (Int)

(* What a memoized decision read decides whether it may be carried
   into the next epoch's snapshot (see the interface). *)
type source = Frozen of int list | Live

type memo = { source : source; decision : Requester.decision }

type t = {
  epoch : int;
  doc : Tree.t;  (* frozen COW view (or a deep copy from [capture_full]) *)
  gen : int;  (* the generation the view froze; -1 for deep copies *)
  cam : Cam.t;  (* frozen single-subject map *)
  annotated : bool;  (* signs had a committed annotation epoch at capture *)
  bits_annotated : bool;  (* ... and likewise the role bitmaps *)
  policy : Policy.t;
  role_cams : (string, Cam.t) Hashtbl.t;
      (* Per-role maps over the frozen bitmaps, built lazily on the
         first request naming each role (or carried from the previous
         snapshot when the epoch touched no bitmap); guarded by
         [lock]. *)
  cache : memo Decision_cache.t;
      (* The one decision cache: frozen reads and live engine reads
         both memoize here, under keys that keep them apart.  Guarded
         by [lock]. *)
  metrics : Metrics.t;
  lock : Mutex.t;
      (* Guards [role_cams] and [cache]; the rest is frozen.  The pin
         count is guarded by the owning registry's lock instead, so
         pin/publish/reclaim are atomic with respect to each other. *)
  mutable pins : int;
}

let with_lock lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

(* Decisions and per-role maps survive into the next snapshot when the
   epoch's change set provably cannot have moved them:

   - any entry dies on a structural epoch (insert/delete/value writes
     can move answer sets without touching previously examined ids);
   - a [Frozen] entry additionally dies when the change set intersects
     its examined ids (a sign or bitmap write there can flip an
     effective sign the decision read);
   - a [Live] entry always dies;
   - the per-role maps survive iff the epoch touched neither structure
     nor any bitmap.

   All of it is gated on provenance: the captured view must be the
   very next generation of the same tree family as [prev]'s, under
   the same (physically equal) policy — otherwise the tree-level
   change set does not describe the gap between the two snapshots and
   the new snapshot simply starts cold (correct, just slower). *)
let carry_forward ~prev ~(stats : Tree.freeze_stats) t =
  let continuous =
    Tree.family prev.doc = Tree.family t.doc
    && stats.frozen_gen = prev.gen + 1
    && prev.policy == t.policy
  in
  if continuous && not stats.structural then begin
    let changed = Iset.of_list stats.changed in
    let untouched ids = not (List.exists (fun id -> Iset.mem id changed) ids) in
    let carried = ref 0 in
    with_lock prev.lock (fun () ->
        Decision_cache.iter
          (fun key m ->
            match m.source with
            | Frozen ids when untouched ids ->
                Decision_cache.add t.cache key m;
                incr carried
            | Frozen _ | Live -> ())
          prev.cache;
        if not stats.bits_touched then
          Hashtbl.iter
            (fun role c -> Hashtbl.replace t.role_cams role c)
            prev.role_cams);
    if !carried > 0 then Metrics.add t.metrics "snapshot.cache.carried" !carried
  end

let make ~annotated ~bits_annotated ~epoch ~policy ~cam ~metrics ~gen doc =
  Metrics.incr metrics "snapshot.captures";
  {
    epoch;
    doc;
    gen;
    cam = Cam.freeze cam;
    annotated;
    bits_annotated;
    policy;
    role_cams = Hashtbl.create 4;
    cache = Decision_cache.create ();
    metrics;
    lock = Mutex.create ();
    pins = 0;
  }

let capture ?(annotated = true) ?(bits_annotated = true) ?prev ~epoch ~policy
    ~cam ~metrics doc =
  let view, stats = Tree.freeze doc in
  let t =
    make ~annotated ~bits_annotated ~epoch ~policy ~cam ~metrics
      ~gen:stats.Tree.frozen_gen view
  in
  Option.iter (fun p -> carry_forward ~prev:p ~stats t) prev;
  t

let capture_full ?(annotated = true) ?(bits_annotated = true) ~epoch ~policy
    ~cam ~metrics doc =
  make ~annotated ~bits_annotated ~epoch ~policy ~cam ~metrics ~gen:(-1)
    (Tree.copy doc)

let epoch t = t.epoch
let document t = t.doc
let cam t = t.cam
let annotated t = t.annotated
let bits_annotated t = t.bits_annotated
let pins t = t.pins
let cow t = t.gen >= 0
let decision_cache t = t.cache
let cached_decisions t = with_lock t.lock (fun () -> Decision_cache.length t.cache)

let resolve_lane ?subject ?(lane = Rewrite.Auto) t =
  match lane with
  | Rewrite.Materialized -> (Rewrite.Materialized, "forced")
  | Rewrite.Rewrite -> (Rewrite.Rewrite, "forced")
  | Rewrite.Auto ->
      let ann =
        match subject with None -> t.annotated | Some _ -> t.bits_annotated
      in
      if ann then (Rewrite.Materialized, "annotated at capture")
      else (Rewrite.Rewrite, "never annotated at capture")

(* One role's view of the frozen bitmaps.  Built under the lock: a
   duplicate build racing outside it would be harmless but wasted, and
   [Cam.build_role] crosses no checkpoints or fault points, so nothing
   can raise mid-build except allocation failure. *)
let role_cam t role =
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.role_cams role with
      | Some c -> c
      | None ->
          let idx =
            match Subject.index (Policy.subjects t.policy) role with
            | Some i -> i
            | None -> invalid_arg ("Snapshot.role_cam: unknown role " ^ role)
          in
          let c =
            Cam.build_role t.doc ~role:idx
              ~default:(Policy.resolved_ds t.policy role)
          in
          Hashtbl.replace t.role_cams role c;
          Metrics.incr t.metrics "snapshot.role_cam_builds";
          c)

let accessible ?subject t ~absent =
  let cam = match subject with None -> t.cam | Some role -> role_cam t role in
  fun id ->
    match Tree.find t.doc id with
    | Some n -> Cam.lookup cam n = Tree.Plus
    | None -> absent id

(* Keys keep the lanes (answer-equivalent only while the materialized
   layer is fresh), the subjects and the frozen/live reads apart. *)
type key = string

let key ?(store = "") ?subject lane query =
  String.concat ""
    [
      (match lane with Rewrite.Rewrite -> "R/" | _ -> "M/");
      store;
      (match subject with None -> "" | Some _ -> "@");
      Option.value subject ~default:"";
      "\x00";
      query;
    ]

(* The hit path: one lookup, no allocation beyond the answer. *)
let cached t key =
  Mutex.lock t.lock;
  let m = Decision_cache.find t.cache key in
  Mutex.unlock t.lock;
  Option.map (fun m -> m.decision) m

(* The miss path every read goes through, frozen or live: cross the
   [snapshot.read] checkpoint, which lets the serve layer inject
   transient faults into reads (retry tests, the chaos soak), then
   compute the memo and remember it. *)
let remember t key compute =
  Fault.point "snapshot.read";
  let m = compute () in
  with_lock t.lock (fun () -> Decision_cache.add t.cache key m);
  m.decision

(* The materialized lane over the frozen state: evaluate on the frozen
   tree, check accessibility against the frozen (per-role) CAM.  Also
   records the ids the decision examined — the answers plus all their
   ancestors, i.e. every node whose annotation a [Cam.lookup] walk can
   have read — which is what makes the memo carriable. *)
let materialized_decision ?subject t expr =
  let answers = Xmlac_xpath.Eval.eval t.doc expr in
  let ids =
    List.map (fun (n : Tree.node) -> n.Tree.id) answers
    |> List.sort_uniq compare
  in
  let examined =
    List.concat_map
      (fun (n : Tree.node) ->
        n.Tree.id
        :: List.map (fun (a : Tree.node) -> a.Tree.id) (Tree.ancestors n))
      answers
    |> List.sort_uniq compare
  in
  let accessible = accessible ?subject t ~absent:(fun _ -> false) in
  { source = Frozen examined; decision = Requester.decide ~ids ~accessible }

(* The rewrite lane over the frozen state: compile the request against
   the frozen policy and evaluate the granted/residue pair on the
   frozen tree — no CAM, no sign, no bitmap, so a never-annotated
   frozen document still answers the true policy decision (and the
   memo examines no annotation, making it carriable across any
   non-structural epoch). *)
let rewritten_decision ?subject t expr =
  let compiled = Rewrite.compile ?subject t.policy expr in
  let answer = Rewrite.eval_tree t.doc compiled in
  let d =
    if answer.Rewrite.blocked > 0 then
      Requester.Denied { blocked = answer.Rewrite.blocked }
    else
      Requester.decide ~ids:answer.Rewrite.granted_ids
        ~accessible:(fun _ -> true)
  in
  { source = Frozen []; decision = d }

let request ?subject ?lane t query =
  Metrics.incr t.metrics "snapshot.reads";
  let lane, _reason = resolve_lane ?subject ?lane t in
  let key = key ?subject lane query in
  match cached t key with
  | Some d ->
      Metrics.incr t.metrics "snapshot.cache.hits";
      d
  | None ->
      Metrics.incr t.metrics "snapshot.cache.misses";
      remember t key (fun () ->
          let expr = Requester.parse_or_fail query in
          match lane with
          | Rewrite.Rewrite -> rewritten_decision ?subject t expr
          | _ -> materialized_decision ?subject t expr)

(* --- registry ------------------------------------------------------ *)

type registry = {
  current_snap : t option Atomic.t;
      (* Written under [reg_lock]; read without it by [current], the
         per-request path. *)
  mutable retired_snaps : t list;  (* pinned old snapshots, newest first *)
  mutable published_count : int;
  mutable reclaimed_count : int;
  mutable max_retired_count : int;
  reg_metrics : Metrics.t;
  reg_lock : Mutex.t;
}

let create_registry ~metrics () =
  {
    current_snap = Atomic.make None;
    retired_snaps = [];
    published_count = 0;
    reclaimed_count = 0;
    max_retired_count = 0;
    reg_metrics = metrics;
    reg_lock = Mutex.create ();
  }

let publish reg snap =
  (* Crash here = the epoch committed but its snapshot never became
     current; [Engine.recover]'s idempotent path republishes. *)
  Fault.point "snapshot.publish";
  let freed =
    with_lock reg.reg_lock (fun () ->
        let freed =
          match Atomic.get reg.current_snap with
          | None -> 0
          | Some old when old.pins = 0 -> 1  (* reclaimed on the spot *)
          | Some old ->
              reg.retired_snaps <- old :: reg.retired_snaps;
              0
        in
        Atomic.set reg.current_snap (Some snap);
        reg.published_count <- reg.published_count + 1;
        reg.reclaimed_count <- reg.reclaimed_count + freed;
        let lag = List.length reg.retired_snaps in
        if lag > reg.max_retired_count then reg.max_retired_count <- lag;
        freed)
  in
  Metrics.incr reg.reg_metrics "snapshot.publishes";
  if freed > 0 then begin
    Metrics.add reg.reg_metrics "snapshot.reclaims" freed;
    Fault.point "snapshot.reclaim"
  end

let current reg = Atomic.get reg.current_snap
let current_epoch reg = Option.map (fun s -> s.epoch) (current reg)

let pin reg =
  let snap =
    with_lock reg.reg_lock (fun () ->
        match Atomic.get reg.current_snap with
        | None -> invalid_arg "Snapshot.pin: nothing published yet"
        | Some s ->
            s.pins <- s.pins + 1;
            s)
  in
  Metrics.incr reg.reg_metrics "snapshot.pins";
  snap

let unpin reg snap =
  let freed =
    with_lock reg.reg_lock (fun () ->
        if snap.pins <= 0 then invalid_arg "Snapshot.unpin: not pinned";
        snap.pins <- snap.pins - 1;
        let is_current =
          match Atomic.get reg.current_snap with
          | Some c -> c == snap
          | None -> false
        in
        if snap.pins = 0 && not is_current then begin
          reg.retired_snaps <-
            List.filter (fun s -> s != snap) reg.retired_snaps;
          reg.reclaimed_count <- reg.reclaimed_count + 1;
          true
        end
        else false)
  in
  Metrics.incr reg.reg_metrics "snapshot.unpins";
  if freed then begin
    Metrics.incr reg.reg_metrics "snapshot.reclaims";
    Fault.point "snapshot.reclaim"
  end

let live reg =
  with_lock reg.reg_lock (fun () ->
      (match Atomic.get reg.current_snap with Some _ -> 1 | None -> 0)
      + List.length reg.retired_snaps)

let retired reg =
  with_lock reg.reg_lock (fun () -> List.length reg.retired_snaps)

let published reg = with_lock reg.reg_lock (fun () -> reg.published_count)
let reclaimed reg = with_lock reg.reg_lock (fun () -> reg.reclaimed_count)

let max_retired reg =
  with_lock reg.reg_lock (fun () -> reg.max_retired_count)

let pp_registry ppf reg =
  let cur, cur_pins, ret, pub, rec_, lag =
    with_lock reg.reg_lock (fun () ->
        let cur = Atomic.get reg.current_snap in
        ( Option.map (fun s -> s.epoch) cur,
          (match cur with Some s -> s.pins | None -> 0),
          List.length reg.retired_snaps,
          reg.published_count,
          reg.reclaimed_count,
          reg.max_retired_count ))
  in
  Format.fprintf ppf
    "snapshots: current epoch %s (%d pin%s), %d retired, %d published, %d \
     reclaimed, max lag %d"
    (match cur with None -> "none" | Some e -> string_of_int e)
    cur_pins
    (if cur_pins = 1 then "" else "s")
    ret pub rec_ lag
