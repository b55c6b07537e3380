module Tree = Xmlac_xml.Tree
module Sg = Xmlac_xml.Schema_graph
module Db = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Wal = Xmlac_reldb.Wal
module Metrics = Xmlac_util.Metrics
module Fault = Xmlac_util.Fault

type backend_kind = Native | Row_sql | Column_sql

let backend_kind_to_string = function
  | Native -> "native"
  | Row_sql -> "row-sql"
  | Column_sql -> "column-sql"

let fault_prefix = function
  | Native -> "native"
  | Row_sql -> "row"
  | Column_sql -> "column"

let all_backend_kinds = [ Native; Row_sql; Column_sql ]

type trigger_mode = Paper_mode | Overlap_mode

(* The wire-visible description of one committed epoch — everything a
   replica needs to reproduce the leader's operation through its own
   (deterministic) engine entry points, and everything recovery needs
   to finish (or abandon) an epoch a simulated crash left open. *)
type shipped_op =
  | Ship_noop
  | Ship_annotate of backend_kind
  | Ship_annotate_subjects of backend_kind
  | Ship_update of string
  | Ship_insert of { at : string; fragment : Tree.t }

type open_op = {
  num : int;  (** The epoch number being attempted. *)
  op : shipped_op;
  saved_annotated : backend_kind list;
  saved_bits_annotated : backend_kind list;
  saved_divergent : bool;
  mutable prepared : (backend_kind * Reannotator.prepared) list;
      (** Pre-mutation repair state, stashed per backend just before
          its structural apply — recovery's roll-forward input. *)
  mutable applied : backend_kind list;
      (** Backends whose structural mutation completed. *)
  mutable new_roots : Tree.node list;  (** Grafted roots (insert only). *)
}

type direction = [ `None | `Back | `Forward ]

type recovery = {
  recovered_epoch : int option;
  direction : direction;
  wal_dropped : int;
  signs_rolled_back : int;
  repaired : backend_kind list;
}

type t = {
  policy : Policy.t;
  original_policy : Policy.t;
  report : Optimizer.report option;
  mapping : Xmlac_shrex.Mapping.t;
  sg : Sg.t;
  depend : Depend.t;
  plan : Plan.t;
  doc : Tree.t;
  row_db : Db.t;
  col_db : Db.t;
  wal_row : Wal.t;
  wal_col : Wal.t;
  native : Backend.t;
  row : Backend.t;
  column : Backend.t;
  journals : (backend_kind * Backend.journal) list;
  (* The CAM over the native store's signs, maintained incrementally
     and frozen into every published snapshot, whose copy the request
     path checks against.  [annotated] lists the kinds annotated so
     far: relational requests may borrow the native CAM only while all
     stores are known to be in lockstep. *)
  metrics : Metrics.t;
  mutable cam : Cam.t;
  mutable annotated : backend_kind list;
  mutable bits_annotated : backend_kind list;
  mutable divergent : bool;
  (* Sign epochs: [sign_epoch] is the last committed epoch (monotone,
     never reused downward); [open_op] is the uncommitted one a crash
     may have left behind. *)
  mutable sign_epoch : int;
  mutable open_op : open_op option;
  (* MVCC: every committed sign epoch is published as an immutable
     snapshot; readers pin one and never block on the writer. *)
  snapshots : Snapshot.registry;
  (* Set while a publish is in flight and left set when it raises (the
     [snapshot.publish] fault fires after [commit_op] advanced
     [sign_epoch], or after [refresh]/[cam_check] changed what the
     snapshot must hold): the current snapshot then lags the committed
     state, and its CAM and memos must not answer live requests. *)
  mutable unpublished : bool;
  (* Replication: a read-only replica refuses caller mutations; only
     [apply_replica] (which sets [applying] for its extent) may open
     epochs on it.  Promotion flips [read_only] back off. *)
  mutable read_only : bool;
  mutable applying : bool;
}

(* Freeze the committed materialization as of [sign_epoch] and install
   it as the current snapshot.  Called only between epochs (after
   [commit_op], at creation, after recovery) — never inside an open
   epoch — so a reader can never pin partial state.  [~carry:false]
   starts the new snapshot cold, for when the outgoing one's memos
   cannot be trusted. *)
let publish_snapshot ?(carry = true) t =
  t.unpublished <- true;
  let snap =
    (* The annotation flags describe the native tree being frozen —
       that is what snapshot requests read — so [Snapshot.request]'s
       auto lane can route a never-annotated frozen document through
       the rewrite lane instead of its default-sign CAM.  [prev] (the
       outgoing snapshot) feeds carry-forward: the capture compares
       the tree-level change set against it and migrates still-valid
       memoized decisions and per-role maps instead of cold-starting;
       the capture itself is an O(changed) [Tree.freeze], not a
       copy. *)
    Snapshot.capture
      ?prev:(if carry then Snapshot.current t.snapshots else None)
      ~epoch:t.sign_epoch ~policy:t.policy ~cam:t.cam
      ~annotated:(List.mem Native t.annotated || t.divergent)
      ~bits_annotated:(List.mem Native t.bits_annotated || t.divergent)
      ~metrics:t.metrics t.doc
  in
  Snapshot.publish t.snapshots snap;
  t.unpublished <- false

(* Finish a publish that raised, cold: the lagging snapshot's memos
   were decided against the state it froze. *)
let catch_up t = if t.unpublished then publish_snapshot ~carry:false t

let create ?(mode = Paper_mode) ?(optimize = true) ~dtd ~policy doc =
  let mapping = Xmlac_shrex.Mapping.of_dtd dtd in
  let sg = Xmlac_shrex.Mapping.schema_graph mapping in
  let original_policy = policy in
  let report, policy =
    if optimize then
      let r = Optimizer.optimize policy in
      (Some r, r.Optimizer.result)
    else (None, policy)
  in
  let default_sign = Rule.effect_to_string (Policy.ds policy) in
  let default_bits = Policy.default_bits policy in
  let native_doc = Tree.copy doc in
  let row_db = Db.create Table.Row in
  let col_db = Db.create Table.Column in
  let _ = Xmlac_shrex.Shred.load mapping ~default_sign ~default_bits row_db doc in
  let _ = Xmlac_shrex.Shred.load mapping ~default_sign ~default_bits col_db doc in
  (* The bulk load above is the base image (checkpoint); journaling
     starts with the first mutating epoch, as with a real bulk load
     that bypasses the WAL. *)
  let wal_row = Wal.create () and wal_col = Wal.create () in
  Db.set_wal row_db (Some wal_row);
  Db.set_wal col_db (Some wal_col);
  let depend_mode =
    match mode with
    | Paper_mode -> Depend.Paper
    | Overlap_mode -> Depend.Overlap sg
  in
  let journals = List.map (fun k -> (k, Backend.journal ())) all_backend_kinds in
  let wrap kind base =
    Backend.with_faults
      ~prefix:(fault_prefix kind)
      (Backend.journaled (List.assoc kind journals) base)
  in
  let metrics = Metrics.create () in
  let t =
  {
    policy;
    original_policy;
    report;
    mapping;
    sg;
    depend = Depend.build ~mode:depend_mode policy;
    plan = Plan.rewrite ~schema:sg (Plan.of_policy policy);
    doc = native_doc;
    row_db;
    col_db;
    wal_row;
    wal_col;
    native = wrap Native (Xml_backend.make native_doc);
    row = wrap Row_sql (Rel_backend.make mapping row_db);
    column = wrap Column_sql (Rel_backend.make mapping col_db);
    journals;
    metrics;
    cam = Cam.build native_doc ~default:(Policy.ds policy);
    annotated = [];
    bits_annotated = [];
    divergent = false;
    sign_epoch = 0;
    open_op = None;
    snapshots = Snapshot.create_registry ~metrics ();
    unpublished = false;
    read_only = false;
    applying = false;
  }
  in
  (* Epoch 0 (the load-time materialization) is a committed epoch like
     any other: publish it so readers can pin before the first
     mutation. *)
  publish_snapshot t;
  t

let policy t = t.policy
let original_policy t = t.original_policy
let optimizer_report t = t.report
let mapping t = t.mapping
let schema_graph t = t.sg
let depend t = t.depend
let plan t = t.plan
let metrics t = t.metrics
let cam t = t.cam
let sign_epoch t = t.sign_epoch
let open_epoch t = Option.map (fun o -> o.num) t.open_op
let snapshots t = t.snapshots

let current_snapshot t =
  match Snapshot.current t.snapshots with
  | Some s -> s
  | None -> assert false (* published at creation, never emptied *)

(* The one rule for which snapshot a read may answer from: the current
   one, once a publish that raised has been finished.  Live requests
   call it directly; degraded and replica reads reach it through
   [Serve]'s read gate, which fails closed when it raises. *)
let read_snapshot t =
  catch_up t;
  current_snapshot t

let decision_cache t = Snapshot.decision_cache (current_snapshot t)
let pin_snapshot t = Snapshot.pin t.snapshots
let unpin_snapshot t snap = Snapshot.unpin t.snapshots snap

let wal t = function
  | Native -> None
  | Row_sql -> Some t.wal_row
  | Column_sql -> Some t.wal_col

let explain ?(with_doc = true) t =
  Plan.explain ~schema:t.sg ~mapping:t.mapping
    ?doc:(if with_doc then Some t.doc else None)
    (Plan.of_policy t.policy)

let backend t = function
  | Native -> t.native
  | Row_sql -> t.row
  | Column_sql -> t.column

let document t = t.doc

(* The stores with a committed annotation epoch for the layer a
   request reads: signs for the anonymous subject, role bitmaps for a
   named one. *)
let annotated_layer ?subject t =
  match subject with None -> t.annotated | Some _ -> t.bits_annotated

(* All stores agree on a layer when they share a history: either none
   has been annotated yet (all still carry the load-time default sign
   or bitmap) or all three have been annotated since the last known
   divergence.  Engine-level updates repair every store, so they
   preserve whichever of the two states holds; {!refresh} declares a
   divergence (signs were mutated behind the engine's back) that only
   annotating all three stores clears. *)
let in_lockstep ?subject t =
  match annotated_layer ?subject t with
  | [] -> not t.divergent
  | ks -> List.length ks = 3

let role_index t role =
  match Subject.index (Policy.subjects t.policy) role with
  | Some i -> i
  | None ->
      invalid_arg
        (Printf.sprintf "Engine: unknown role %S (declared: %s)" role
           (String.concat ", " (Policy.roles t.policy)))

let role_cam t role = Snapshot.role_cam (current_snapshot t) role

let rebuild_cam t =
  Metrics.incr t.metrics "cam.full_rebuilds";
  t.cam <- Cam.build t.doc ~default:(Policy.ds t.policy)

(* Incremental CAM maintenance from the re-annotator's changed-id
   report (plus the roots of freshly grafted subtrees); any failure
   falls back to a full rebuild, counted so the bench can see it. *)
let maintain_cam t ~changed ~roots =
  Fault.point "cam.repair";
  Metrics.time t.metrics "cam.maintain" (fun () ->
      match
        let touched = Cam.apply_changes t.cam t.doc ~changed in
        let touched =
          List.fold_left
            (fun acc root -> acc + Cam.rebuild_subtree t.cam t.doc ~root)
            touched roots
        in
        let purged = Cam.purge t.cam t.doc in
        (touched, purged)
      with
      | touched, purged ->
          Metrics.add t.metrics "cam.touched" touched;
          Metrics.add t.metrics "cam.purged" purged
      | exception (Fault.Crash _ as e) -> raise e
      | exception _ -> rebuild_cam t)

let cam_check t =
  let fresh = Cam.build t.doc ~default:(Policy.ds t.policy) in
  let ok = Cam.equal t.cam fresh in
  if not ok then begin
    Metrics.incr t.metrics "cam.check_failures";
    t.cam <- fresh;
    (* Requests check against the snapshot's frozen copy of the faulty
       map, and its memos were decided with it: republish, cold.  An
       open epoch publishes when it commits or recovers. *)
    if t.open_op = None then publish_snapshot ~carry:false t
  end;
  ok

let refresh t =
  t.divergent <- true;
  t.annotated <- [];
  t.bits_annotated <- [];
  rebuild_cam t;
  (* The signs moved behind the engine's back; the current snapshot no
     longer reflects them.  Republish under the same sign epoch —
     already-pinned readers keep their (now historical) version. *)
  publish_snapshot t

(* --- sign epochs --------------------------------------------------- *)

(* Every mutating operation runs inside a sign epoch: begin markers hit
   both relational WALs and arm the per-backend undo journals, and only
   [commit_op] advances [sign_epoch].  A crash (Fault.Crash escaping
   the operation) leaves [open_op] set; {!recover} resolves it. *)
let begin_op t op =
  if t.read_only && not t.applying then
    invalid_arg
      "Engine: read-only replica refuses direct mutation (epochs arrive via \
       apply_replica; promote to make it writable)";
  (match t.open_op with
  | Some o ->
      invalid_arg
        (Printf.sprintf
           "Engine: epoch %d is open and uncommitted (crashed?); run recover \
            before mutating again"
           o.num)
  | None -> ());
  (* Publish before opening: once the epoch is open, a lagging
     snapshot could no longer be caught up without freezing partial
     state. *)
  catch_up t;
  let num = t.sign_epoch + 1 in
  Wal.begin_epoch t.wal_row num;
  Wal.begin_epoch t.wal_col num;
  let o =
    {
      num;
      op;
      saved_annotated = t.annotated;
      saved_bits_annotated = t.bits_annotated;
      saved_divergent = t.divergent;
      prepared = [];
      applied = [];
      new_roots = [];
    }
  in
  t.open_op <- Some o;
  List.iter (fun (_, j) -> Backend.journal_begin j) t.journals;
  o

let commit_op t o =
  Wal.commit_epoch t.wal_row o.num;
  Wal.commit_epoch t.wal_col o.num;
  List.iter (fun (_, j) -> Backend.journal_stop j) t.journals;
  t.sign_epoch <- o.num;
  t.open_op <- None;
  Metrics.incr t.metrics "epoch.commits";
  (* The epoch is durable; freeze it for readers.  A crash past this
     point (the snapshot.publish fault) leaves the registry one epoch
     behind — recovery's idempotent path republishes. *)
  publish_snapshot t

let annotate t kind =
  let o = begin_op t (Ship_annotate kind) in
  let stats = Annotator.annotate_with_plan (backend t kind) t.plan in
  if not (List.mem kind t.annotated) then t.annotated <- kind :: t.annotated;
  if List.length t.annotated = 3 then t.divergent <- false;
  if kind = Native then
    t.cam <- Cam.build t.doc ~default:(Policy.ds t.policy);
  commit_op t o;
  stats

let annotate_all t =
  List.map (fun k -> (k, annotate t k)) all_backend_kinds

let annotate_subjects t kind =
  let o = begin_op t (Ship_annotate_subjects kind) in
  let stats =
    Metrics.time t.metrics "annotate.subjects" (fun () ->
        Annotator.annotate_subjects ~schema:t.sg (backend t kind) t.policy)
  in
  if not (List.mem kind t.bits_annotated) then
    t.bits_annotated <- kind :: t.bits_annotated;
  commit_op t o;
  stats

let annotate_subjects_all t =
  List.map (fun k -> (k, annotate_subjects t k)) all_backend_kinds

(* Structural updates repair the single-subject signs incrementally
   (Reannotator), but the bitmap layer has no incremental repair yet —
   once the shared pass has materialized a store's bitmaps, keep them
   fresh by re-running it after the mutation, inside the same epoch
   (so a crash rolls the whole thing back together). *)
let reannotate_bits t =
  match t.bits_annotated with
  | [] -> ()
  | ks ->
      Metrics.incr t.metrics "subjects.reannotations";
      List.iter
        (fun k ->
          ignore
            (Annotator.annotate_subjects ~schema:t.sg (backend t k) t.policy))
        (List.rev ks)

(* The role's per-node sign, read off the bitmap layer: explicit where
   a bitmap is materialized, the role's resolved default elsewhere
   ([effective_bits] falls back to the policy's default bitmap, whose
   bit for [idx] encodes exactly that default). *)
let role_sign t b idx id =
  if
    Xmlac_util.Bitset.mem idx
      (Backend.effective_bits b ~default:(Policy.default_bits t.policy) id)
  then Tree.Plus
  else Tree.Minus

(* The materialized lane on a live store: evaluate through the store,
   check accessibility against the snapshot's frozen CAM (the role's
   map for a subject).  A store whose signs (or bitmaps) have diverged
   from the native ones — only one of the two annotation states
   reached it — is not described by that CAM, so it reads its own. *)
let request_materialized t snap kind subj expr =
  let b = backend t kind in
  let own =
    match subj with
    | None -> Backend.effective_sign b ~default:(Policy.ds t.policy)
    | Some (_, idx) -> role_sign t b idx
  in
  let subject = Option.map fst subj in
  if kind = Native || in_lockstep ?subject t then begin
    let ids =
      Metrics.time t.metrics "request.eval" (fun () ->
          b.Backend.eval_ids expr)
    in
    let n = List.length ids in
    Metrics.add t.metrics "cam.lookups" n;
    Option.iter
      (fun role -> Metrics.add t.metrics ("cam.lookups." ^ role) n)
      subject;
    (* An id missing from the frozen tree (not expected while the
       stores are in lockstep) falls back to the store's own signs. *)
    let accessible =
      Snapshot.accessible ?subject snap ~absent:(fun id -> own id = Tree.Plus)
    in
    Metrics.time t.metrics "request.check" (fun () ->
        Requester.decide ~ids ~accessible)
  end
  else begin
    Metrics.incr t.metrics "fastlane.bypass";
    Option.iter
      (fun role -> Metrics.incr t.metrics ("fastlane.bypass." ^ role))
      subject;
    Requester.request_via ~sign:own b expr
  end

(* --- lane selection ------------------------------------------------ *)

let resolve_lane ?subject ?(lane = Rewrite.Auto) t kind =
  match lane with
  | Rewrite.Materialized -> (Rewrite.Materialized, "forced")
  | Rewrite.Rewrite -> (Rewrite.Rewrite, "forced")
  | Rewrite.Auto ->
      if List.mem kind (annotated_layer ?subject t) then
        (Rewrite.Materialized, "annotated store")
      else if t.divergent then
        (* [refresh] declared the signs mutated behind the engine's
           back: the store {e is} materialized (the CAM was rebuilt
           from whatever is there), the engine just cannot vouch for a
           committed annotation epoch — serve what the operator
           installed, not the policy recompilation. *)
        (Rewrite.Materialized, "diverged store")
      else (Rewrite.Rewrite, "never-annotated store")

(* The rewrite lane: compile the request against the policy (the
   cached engine plan for the anonymous subject, the role's projection
   otherwise) and evaluate the granted/residue pair through the
   backend — zero sign or bitmap reads, so a cold store answers the
   true policy decision. *)
let request_rewritten t kind subject expr =
  let b = backend t kind in
  Metrics.time t.metrics "request.rewrite" (fun () ->
      match subject with
      | None ->
          Requester.request_rewritten ~schema:t.sg ~plan:t.plan b t.policy expr
      | Some role ->
          Requester.request_rewritten ~schema:t.sg ~subject:role b t.policy
            expr)

(* Every live request is answered through the current snapshot: its
   cache memoizes the decision under a key carrying the store, and its
   frozen CAM checks accessibility, while evaluation still runs on the
   live store. *)
let request ?subject ?lane t kind query =
  Metrics.time t.metrics "request" (fun () ->
      (* Resolve (and validate) the role before consulting the cache so
         an unknown role raises instead of poisoning a cache slot. *)
      let subj = Option.map (fun role -> (role, role_index t role)) subject in
      let lane, _reason = resolve_lane ?subject ?lane t kind in
      let tally base =
        Metrics.incr t.metrics base;
        Option.iter
          (fun role -> Metrics.incr t.metrics (base ^ "." ^ role))
          subject
      in
      (* Outside an open epoch ([begin_op] catches up first), so
         this never freezes partial state. *)
      let snap = read_snapshot t in
      let key =
        Snapshot.key ~store:(backend_kind_to_string kind) ?subject lane query
      in
      match Snapshot.cached snap key with
      | Some d ->
          tally "cache.hits";
          d
      | None ->
          tally "cache.misses";
          let cache = Snapshot.decision_cache snap in
          let evictions0 = Decision_cache.evictions cache in
          let d =
            Snapshot.remember snap key (fun () ->
                let expr = Requester.parse_or_fail query in
                let decision =
                  match lane with
                  | Rewrite.Rewrite ->
                      tally "lane.rewrite";
                      request_rewritten t kind subject expr
                  | _ ->
                      Metrics.incr t.metrics "lane.materialized";
                      request_materialized t snap kind subj expr
                in
                { Snapshot.source = Live; decision })
          in
          (* Attribute evictions to the request (and role) whose insert
             forced them — the per-role churn [explain --request]
             shows. *)
          let forced = Decision_cache.evictions cache - evictions0 in
          if forced > 0 then begin
            Metrics.add t.metrics "cache.evictions" forced;
            Option.iter
              (fun role ->
                Metrics.add t.metrics ("cache.evictions." ^ role) forced)
              subject
          end;
          d)

let request_direct ?subject t kind query =
  let b = backend t kind in
  let expr = Requester.parse_or_fail query in
  match subject with
  | None -> Requester.request b ~default:(Policy.ds t.policy) expr
  | Some role -> Requester.request_via ~sign:(role_sign t b (role_index t role)) b expr

(* The insertion-point expressions the trigger treats as the update:
   the grafted roots and everything below them. *)
let insert_touched ~at_expr ~frag_root =
  let root_path =
    Xmlac_xpath.Ast.
      { steps = at_expr.steps @ [ step Child (Name frag_root) ] }
  in
  let subtree_path =
    Xmlac_xpath.Ast.{ steps = root_path.steps @ [ step Descendant Wildcard ] }
  in
  [ root_path; subtree_path ]

(* A structural operation as the trigger's touched expressions plus
   its per-store apply, which returns the deleted (or grafted) root
   count.  Paths are parsed here, before any epoch opens.  Insert
   grafts into the native store first, then mirrors the fresh subtrees
   — same universal ids — into both relational stores. *)
let structural_steps t = function
  | Ship_update query ->
      let expr = Xmlac_xpath.Parser.parse_exn query in
      ([ expr ], fun _ kind -> (backend t kind).Backend.delete_update expr)
  | Ship_insert { at; fragment } ->
      let at_expr = Xmlac_xpath.Parser.parse_exn at in
      let touched =
        insert_touched ~at_expr ~frag_root:(Tree.root fragment).Tree.name
      in
      let default_sign = Rule.effect_to_string (Policy.ds t.policy) in
      let default_bits = Policy.default_bits t.policy in
      let apply o kind =
        Fault.point (fault_prefix kind ^ ".insert");
        (match kind with
        | Native ->
            o.new_roots <-
              Xmlac_xmldb.Update.insert_nodes t.doc ~at:at_expr ~fragment
        | Row_sql | Column_sql ->
            let db = if kind = Row_sql then t.row_db else t.col_db in
            List.iter
              (fun root ->
                ignore
                  (Xmlac_shrex.Shred.insert_subtree t.mapping ~default_sign
                     ~default_bits db root))
              o.new_roots);
        List.length o.new_roots
      in
      (touched, apply)
  | Ship_noop | Ship_annotate _ | Ship_annotate_subjects _ ->
      invalid_arg "Engine: not a structural operation"

(* The one structural body, shared by {!update}, {!insert} and
   recovery's roll-forward: per store, prepare the repair and stash it
   (unless an earlier attempt did), apply the mutation unless it
   already landed there, then finish the repair.  A crashed attempt's
   partial sign writes are rolled back before recovery re-enters, so
   [finish] recomputes them from the inputs the uninterrupted run
   used. *)
let restructure t o (touched, apply) =
  List.map
    (fun kind ->
      let b = backend t kind in
      let prepared =
        match List.assoc_opt kind o.prepared with
        | Some p -> p
        | None ->
            let p = Reannotator.prepare ~schema:t.sg b t.depend ~touched in
            o.prepared <- (kind, p) :: o.prepared;
            p
      in
      let deleted_roots =
        if List.mem kind o.applied then 0
        else begin
          let n = apply o kind in
          o.applied <- kind :: o.applied;
          n
        end
      in
      (kind, Reannotator.finish ~schema:t.sg b t.depend prepared ~deleted_roots))
    all_backend_kinds

let run_structural t op =
  let steps = structural_steps t op in
  let o = begin_op t op in
  let stats = restructure t o steps in
  maintain_cam t
    ~changed:(List.assoc Native stats).Reannotator.changed
    ~roots:(List.map (fun (n : Tree.node) -> n.Tree.id) o.new_roots);
  reannotate_bits t;
  commit_op t o;
  stats

let update t query = run_structural t (Ship_update query)

(* The open epoch keeps [fragment] as-is: the grafts deep-copy out of
   it (engine.mli's aliasing contract). *)
let insert t ~at ~fragment = run_structural t (Ship_insert { at; fragment })

(* --- recovery ------------------------------------------------------ *)

let recover t =
  (* The simulated restart: clear the kill and every armed trigger
     before touching any store, as a fresh process would start clean. *)
  Fault.recover ();
  let wal_dropped = Wal.recover t.wal_row + Wal.recover t.wal_col in
  match t.open_op with
  | None ->
      (* Nothing was in flight: the crash (if any) hit outside an
         epoch and left no partial state.  This makes recover
         idempotent — a second call after a completed recovery finds
         committed WAL tails and no open epoch, so it leaves every
         counter, the snapshot and the CAM untouched. *)
      if wal_dropped > 0 then begin
        Metrics.incr t.metrics "recovery.runs";
        Metrics.add t.metrics "recovery.wal_dropped" wal_dropped
      end;
      (* One exception to "leave everything untouched": a crash that
         hit after commit (or a refresh or repair) but before the
         snapshot publish leaves the registry behind.  Republishing is
         invisible to every other observable (epoch, counters, CAM),
         so recover stays idempotent. *)
      catch_up t;
      {
        recovered_epoch = None;
        direction = `None;
        wal_dropped;
        signs_rolled_back = 0;
        repaired = [];
      }
  | Some o ->
      Metrics.incr t.metrics "recovery.runs";
      Metrics.add t.metrics "recovery.wal_dropped" wal_dropped;
      (* Re-frame the epoch: recovery's own writes (compensation or
         roll-forward) are journaled and committed under the same
         number, so the WAL never ends on an uncommitted tail. *)
      Wal.begin_epoch t.wal_row o.num;
      Wal.begin_epoch t.wal_col o.num;
      (* Undo the crashed attempt's partial sign writes first; the
         journals were recording since [begin_op]. *)
      let signs_rolled_back =
        List.fold_left (fun acc (_, j) -> acc + Backend.rollback j) 0 t.journals
      in
      t.annotated <- o.saved_annotated;
      t.bits_annotated <- o.saved_bits_annotated;
      t.divergent <- o.saved_divergent;
      let direction, repaired =
        match o.op with
        | Ship_noop | Ship_annotate _ | Ship_annotate_subjects _ ->
            (* Annotation-only operation: the rollback above already
               restored the pre-epoch materialization — signs and
               bitmaps both — on every store. *)
            (`Back, [])
        | Ship_update _ | Ship_insert _ ->
            (* Structural operation: the mutation may have reached some
               stores; resuming the structural body everywhere
               converges all three on the post-operation state.
               Stores whose bitmaps were materialized get the shared
               pass re-run too, as the uninterrupted operation would
               have. *)
            ignore (restructure t o (structural_steps t o.op));
            reannotate_bits t;
            (`Forward, all_backend_kinds)
      in
      Wal.commit_epoch t.wal_row o.num;
      Wal.commit_epoch t.wal_col o.num;
      (* The epoch number is consumed either way — the counter never
         runs backwards, even across an aborted epoch. *)
      t.sign_epoch <- o.num;
      t.open_op <- None;
      List.iter (fun (_, j) -> Backend.journal_stop j) t.journals;
      rebuild_cam t;
      (* The recovered epoch is committed; publish it like any other.
         Readers pinned through the crash keep their pre-crash
         snapshot untouched. *)
      publish_snapshot t;
      Metrics.add t.metrics "recovery.signs_rolled_back" signs_rolled_back;
      {
        recovered_epoch = Some o.num;
        direction;
        wal_dropped;
        signs_rolled_back;
        repaired;
      }

type landed = Applied | Consumed | Untouched

(* The one restart predicate: a crash left an epoch open, the fault
   registry holds a kill, or a fault between the two [Wal.begin_epoch]
   calls left a WAL epoch the engine never registered — a wedge that
   makes every later [begin_epoch] refuse.  Each means nothing works
   until [recover] plays the restart. *)
let needs_restart t =
  t.open_op <> None || Fault.killed ()
  || Wal.open_epoch t.wal_row <> None
  || Wal.open_epoch t.wal_col <> None

(* The one settle rule for a failed mutation, given the committed
   epoch before it started. *)
let settle t ~since =
  let direction = if needs_restart t then (recover t).direction else `None in
  match direction with
  | `Forward -> Applied
  | `Back -> Consumed
  | `None -> if t.sign_epoch > since then Applied else Untouched

let accessible t kind =
  Backend.accessible_ids (backend t kind) ~default:(Policy.ds t.policy)

let consistent t =
  match List.map (accessible t) all_backend_kinds with
  | [ a; b; c ] -> a = b && b = c
  | _ -> assert false

let accessible_subject t kind role =
  let idx = role_index t role in
  Backend.accessible_ids_role (backend t kind)
    ~default:(Policy.default_bits t.policy) ~role:idx

let consistent_subjects t =
  List.for_all
    (fun role ->
      match
        List.map (fun k -> accessible_subject t k role) all_backend_kinds
      with
      | [ a; b; c ] -> a = b && b = c
      | _ -> assert false)
    (Policy.roles t.policy)

(* --- replication ---------------------------------------------------- *)

let read_only t = t.read_only
let set_read_only t flag = t.read_only <- flag

let apply t = function
  | Ship_noop -> commit_op t (begin_op t Ship_noop)
  | Ship_annotate kind -> ignore (annotate t kind)
  | Ship_annotate_subjects kind -> ignore (annotate_subjects t kind)
  | Ship_update query -> ignore (update t query)
  | Ship_insert { at; fragment } -> ignore (insert t ~at ~fragment)

let apply_replica t op =
  Fault.point "repl.apply";
  let was = t.applying in
  t.applying <- true;
  Fun.protect ~finally:(fun () -> t.applying <- was) (fun () -> apply t op)

(* A deterministic digest of the enforcement-relevant materialization:
   the anonymous accessible set and every role's accessible set, per
   backend.  Epoch counters are deliberately excluded — a replica whose
   crash recovery consumed extra local epoch numbers still converges on
   the leader's answers, and this digest is the arbiter of that
   convergence (shipped per frame, re-verified at promotion). *)
let state_checksum t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun kind ->
      Buffer.add_string buf (backend_kind_to_string kind);
      Buffer.add_char buf '\x00';
      List.iter
        (fun id ->
          Buffer.add_string buf (string_of_int id);
          Buffer.add_char buf ',')
        (accessible t kind);
      List.iter
        (fun role ->
          Buffer.add_char buf '@';
          Buffer.add_string buf role;
          Buffer.add_char buf ':';
          List.iter
            (fun id ->
              Buffer.add_string buf (string_of_int id);
              Buffer.add_char buf ',')
            (accessible_subject t kind role))
        (Policy.roles t.policy))
    all_backend_kinds;
  Wal.adler32 1l (Buffer.contents buf)
