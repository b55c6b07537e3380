(* MVCC epoch snapshots: the registry's pin/publish/reclaim lifecycle,
   the engine's publish-on-commit integration, the pinned-reader
   isolation property (byte-identical decisions before, during and
   after the next epoch commits, against all three backends), the
   crash sweep where the writer dies mid-epoch under pinned readers,
   and the concurrent front end (Pool scheduling, Session lifecycle,
   a multi-domain smoke run). *)

open Xmlac_core
module Tree = Xmlac_xml.Tree
module Fault = Xmlac_util.Fault
module Prng = Xmlac_util.Prng
module Metrics = Xmlac_util.Metrics
module Pp = Xmlac_xpath.Pp
module W = Xmlac_workload
module S = Xmlac_serve.Serve
module Session = Xmlac_serve.Session
module Pool = Xmlac_serve.Pool

(* ------------------------------------------------------------------ *)
(* Fixtures. *)

let make_engine =
  let doc = lazy (W.Hospital.sample_document ()) in
  fun () ->
    Engine.create ~dtd:W.Hospital.dtd ~policy:W.Hospital.policy
      (Lazy.force doc)

let annotated_engine () =
  let eng = make_engine () in
  ignore (Engine.annotate_all eng);
  eng

(* Control queries whose decisions move when treatments are deleted. *)
let probe_queries =
  [ "//patient/name"; "//nurse"; "//treatment"; "//patient/psn" ]

let probe_update = "//treatment"

(* A decision transcript of the snapshot: the "bytes" a pinned reader
   sees.  Rendering through the printer makes the comparison catch
   ordering changes too, not just set membership. *)
let transcript ?subject snap =
  String.concat "\n"
    (List.map
       (fun q ->
         Format.asprintf "%s -> %a" q Requester.pp
           (Snapshot.request ?subject snap q))
       probe_queries)

(* ------------------------------------------------------------------ *)
(* Registry lifecycle. *)

let capture_of eng =
  Snapshot.capture ~epoch:(Engine.sign_epoch eng)
    ~policy:(Engine.policy eng) ~cam:(Engine.cam eng)
    ~metrics:(Engine.metrics eng) (Engine.document eng)

let test_registry_lifecycle () =
  Fault.reset ();
  let eng = annotated_engine () in
  let m = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics:m () in
  Alcotest.(check (option int)) "empty registry" None
    (Snapshot.current_epoch reg);
  (match Snapshot.pin reg with
  | _ -> Alcotest.fail "pin before first publish did not raise"
  | exception Invalid_argument _ -> ());
  let s0 = capture_of eng in
  Snapshot.publish reg s0;
  Alcotest.(check (option int)) "s0 current"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  Alcotest.(check int) "one live" 1 (Snapshot.live reg);
  (* Publishing over an unpinned current reclaims it immediately. *)
  let s1 = capture_of eng in
  Snapshot.publish reg s1;
  Alcotest.(check int) "unpinned predecessor reclaimed" 1
    (Snapshot.live reg);
  Alcotest.(check int) "reclaim counted" 1 (Snapshot.reclaimed reg);
  (* A pinned current is retired by the next publish, not reclaimed. *)
  let p = Snapshot.pin reg in
  Alcotest.(check int) "pin counted" 1 (Snapshot.pins p);
  let s2 = capture_of eng in
  Snapshot.publish reg s2;
  Alcotest.(check int) "pinned predecessor retired" 1
    (Snapshot.retired reg);
  Alcotest.(check int) "two live" 2 (Snapshot.live reg);
  Alcotest.(check int) "reclaim lag high-water" 1
    (Snapshot.max_retired reg);
  (* Reclaim happens exactly when the last pin goes. *)
  Snapshot.unpin reg p;
  Alcotest.(check int) "retired freed at refcount 0" 0
    (Snapshot.retired reg);
  Alcotest.(check int) "back to one live" 1 (Snapshot.live reg);
  (match Snapshot.unpin reg p with
  | () -> Alcotest.fail "double unpin did not raise"
  | exception Invalid_argument _ -> ());
  (* The current snapshot is never reclaimed, pinned or not. *)
  let c = Snapshot.pin reg in
  Snapshot.unpin reg c;
  Alcotest.(check bool) "current survives its last unpin" true
    (Snapshot.current reg <> None);
  Alcotest.(check int) "three publishes" 3 (Snapshot.published reg)

let test_engine_publishes_on_commit () =
  Fault.reset ();
  let eng = make_engine () in
  let reg = Engine.snapshots eng in
  Alcotest.(check (option int)) "epoch 0 published at create" (Some 0)
    (Snapshot.current_epoch reg);
  ignore (Engine.annotate_all eng);
  Alcotest.(check (option int)) "commit republishes"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  let pinned = Engine.pin_snapshot eng in
  let before = Engine.sign_epoch eng in
  ignore (Engine.update eng probe_update);
  Alcotest.(check bool) "writer advanced" true
    (Engine.sign_epoch eng > before);
  Alcotest.(check (option int)) "registry tracks the writer"
    (Some (Engine.sign_epoch eng))
    (Snapshot.current_epoch reg);
  Alcotest.(check int) "pinned epoch frozen" before
    (Snapshot.epoch pinned);
  Alcotest.(check int) "old epoch retired, not dropped" 2
    (Snapshot.live reg);
  Engine.unpin_snapshot eng pinned;
  Alcotest.(check int) "reclaimed on last unpin" 1 (Snapshot.live reg)

(* ------------------------------------------------------------------ *)
(* Pinned-reader isolation: deterministic backbone. *)

let test_pinned_reader_isolation () =
  Fault.reset ();
  let eng = annotated_engine () in
  let pinned = Engine.pin_snapshot eng in
  (* Before: the snapshot agrees with the live engine on every
     backend (they all materialize the same committed epoch). *)
  let before = transcript pinned in
  List.iter
    (fun kind ->
      List.iter
        (fun q ->
          Alcotest.(check string)
            (Printf.sprintf "snapshot = live %s on %s"
               (Engine.backend_kind_to_string kind) q)
            (Format.asprintf "%a" Requester.pp (Engine.request eng kind q))
            (Format.asprintf "%a" Requester.pp (Snapshot.request pinned q)))
        probe_queries)
    Engine.all_backend_kinds;
  (* After: the writer commits epoch N+1; the pinned transcript is
     byte-identical while the live one moved. *)
  ignore (Engine.update eng probe_update);
  Alcotest.(check string) "pinned transcript unchanged after commit"
    before (transcript pinned);
  let live_now =
    Format.asprintf "%a" Requester.pp
      (Engine.request eng Engine.Native "//treatment")
  in
  Alcotest.(check bool) "live engine did move" true
    (live_now
    <> Format.asprintf "%a" Requester.pp
         (Snapshot.request pinned "//treatment"));
  Engine.unpin_snapshot eng pinned

(* ------------------------------------------------------------------ *)
(* Crash sweep: the writer dies mid-epoch at every fault point the
   update crosses; the pinned reader's transcript must be identical
   while the corpse is still warm and after recovery. *)

let crossed_points () =
  (* Scout with faults disarmed: which points does the update cross? *)
  Fault.reset ();
  let eng = annotated_engine () in
  let before = List.map (fun p -> (p, Fault.hits p)) (Fault.registered ()) in
  ignore (Engine.update eng probe_update);
  let after = Fault.registered () in
  List.filter
    (fun p ->
      let h0 = try List.assoc p before with Not_found -> 0 in
      Fault.hits p > h0)
    after

let test_crash_sweep_pinned_readers () =
  let points = crossed_points () in
  List.iter
    (fun p ->
      Alcotest.(check bool) ("sweep covers " ^ p) true (List.mem p points))
    [ "snapshot.publish"; "snapshot.reclaim" ];
  List.iter
    (fun point ->
      Fault.reset ();
      let eng = annotated_engine () in
      let pinned = Engine.pin_snapshot eng in
      let before = transcript pinned in
      Fault.arm point (Fault.After 1);
      (match Engine.update eng probe_update with
      | _ ->
          (* Some scouted points (e.g. snapshot.reclaim) are only
             crossed when no reader pins the old epoch; with the pin
             in place the update sails through.  Disarm so the stale
             trigger cannot fire at the unpin below. *)
          Fault.reset ()
      | exception Fault.Crash _ ->
          (* Writer dead mid-epoch: the pinned reader keeps answering,
             byte-identically, without waiting for recovery. *)
          Alcotest.(check string)
            (Printf.sprintf "transcript stable while dead at %s" point)
            before (transcript pinned);
          ignore (Engine.recover eng));
      Alcotest.(check string)
        (Printf.sprintf "transcript stable after recovery from %s" point)
        before (transcript pinned);
      Engine.unpin_snapshot eng pinned)
    points;
  Fault.reset ()

(* ------------------------------------------------------------------ *)
(* Structural sharing: published snapshots are COW views and memoized
   decisions carry across a non-structural epoch. *)

let test_cow_sharing_and_carry () =
  Fault.reset ();
  let eng = annotated_engine () in
  let s0 = Engine.pin_snapshot eng in
  Alcotest.(check bool) "published snapshots share structure" true
    (Snapshot.cow s0);
  (* Memoize a rewrite-lane decision: it reads no annotation, so the
     next non-structural epoch must carry it instead of recomputing. *)
  let d0 =
    Format.asprintf "%a" Requester.pp
      (Snapshot.request ~lane:Rewrite.Rewrite s0 "//nurse")
  in
  Alcotest.(check bool) "memoized on the pinned epoch" true
    (Snapshot.cached_decisions s0 >= 1);
  (* Re-annotation rewrites signs but no structure. *)
  ignore (Engine.annotate_all eng);
  let s1 = Engine.pin_snapshot eng in
  Alcotest.(check bool) "decision carried before any request" true
    (Snapshot.cached_decisions s1 >= 1);
  Alcotest.(check string) "carried decision is the epoch's own answer" d0
    (Format.asprintf "%a" Requester.pp
       (Snapshot.request ~lane:Rewrite.Rewrite s1 "//nurse"));
  Engine.unpin_snapshot eng s0;
  Engine.unpin_snapshot eng s1

(* A CAM that drifted from the signs while the tree recorded no change
   since — a sign written behind the engine's back, then frozen by an
   epoch that never touched the native store — poisons the frozen
   reads of that epoch's snapshot.  [cam_check]'s repair republishes,
   and must not carry those memos into the new snapshot. *)
let test_cam_check_republishes_cold () =
  Fault.reset ();
  let eng = annotated_engine () in
  let doc = Engine.document eng in
  let q = "//patient/name" in
  let target =
    match Helpers.ids doc q with
    | id :: _ -> Option.get (Tree.find doc id)
    | [] -> Alcotest.fail "fixture has no patient names"
  in
  let flipped =
    match Cam.lookup (Engine.cam eng) target with
    | Tree.Plus -> Tree.Minus
    | Tree.Minus -> Tree.Plus
  in
  Tree.set_sign doc target (Some flipped);
  ignore (Engine.annotate eng Engine.Row_sql);
  let direct = Engine.request_direct eng Engine.Native q in
  Alcotest.(check bool) "the drifted snapshot answers wrongly" true
    (Snapshot.request (Engine.current_snapshot eng) q <> direct);
  Alcotest.(check bool) "cam_check notices the drift" false
    (Engine.cam_check eng);
  let snap = Engine.current_snapshot eng in
  Alcotest.(check int) "republished with an empty cache" 0
    (Snapshot.cached_decisions snap);
  Alcotest.(check bool) "frozen read matches the signs" true
    (Snapshot.request snap q = direct)

(* ------------------------------------------------------------------ *)
(* A killed COW publish must never corrupt a pinned neighbor.  The
   writer dies inside the sharing machinery — publish or reclaim —
   while a reader pins an older view that shares records with both the
   corpse and the survivor.  The neighbor is checked two ways: its
   decision transcript (memoized) and a fresh structural walk over
   every node's effective sign, which re-reads the shared records and
   would expose any torn write. *)

let view_signature snap =
  let doc = Snapshot.document snap in
  let cam = Snapshot.cam snap in
  List.sort
    (fun (a : Tree.node) (b : Tree.node) -> compare a.Tree.id b.Tree.id)
    (Tree.nodes doc)
  |> List.map (fun (n : Tree.node) ->
         Printf.sprintf "%d=%s:%s" n.Tree.id n.Tree.name
           (Tree.sign_to_string (Cam.lookup cam n)))
  |> String.concat ","

let test_cow_kill_never_corrupts_pinned_neighbor () =
  List.iter
    (fun point ->
      Fault.reset ();
      let eng = annotated_engine () in
      (* Pin epoch N, then commit N+1 unpinned, so the next publish
         reclaims N+1 on the spot — which puts [snapshot.reclaim] on
         the victim update's path. *)
      let neighbor = Engine.pin_snapshot eng in
      let before = transcript neighbor in
      let before_sig = view_signature neighbor in
      ignore (Engine.update eng "//patient/psn");
      Fault.arm point (Fault.After 1);
      (match Engine.update eng probe_update with
      | _ ->
          (* The point was not crossed by this shape of commit; disarm
             so the stale trigger cannot fire below. *)
          Fault.reset ()
      | exception Fault.Crash _ ->
          Alcotest.(check string)
            (Printf.sprintf "neighbor transcript intact while dead at %s" point)
            before (transcript neighbor);
          Alcotest.(check string)
            (Printf.sprintf "neighbor records intact while dead at %s" point)
            before_sig (view_signature neighbor);
          ignore (Engine.recover eng));
      Fault.reset ();
      Alcotest.(check string)
        (Printf.sprintf "neighbor transcript intact after recovery from %s"
           point)
        before (transcript neighbor);
      Alcotest.(check string)
        (Printf.sprintf "neighbor records intact after recovery from %s" point)
        before_sig (view_signature neighbor);
      Engine.unpin_snapshot eng neighbor)
    [ "snapshot.publish"; "snapshot.reclaim" ]

(* ------------------------------------------------------------------ *)
(* The qcheck property: random documents, policies and updates —
   a reader pinned on epoch N sees byte-identical decisions before,
   during (writer crashed mid-epoch) and after epoch N+1 commits,
   whatever the three backends are doing. *)

let roles_policy =
  lazy
    (Policy_io.parse_exn
       "role staff\n\
        role doctor inherits staff\n\
        default deny\n\
        conflict deny\n\
        allow //patient\n\
        deny @staff //patient[treatment]\n\
        allow @doctor //treatment\n")

let random_policy rng doc =
  match Prng.int rng 4 with
  | 0 -> W.Hospital.policy
  | 1 -> W.Coverage.policy_for_target ~doc ~target:0.3
  | 2 -> Lazy.force roles_policy
  | _ ->
      Policy.make ~ds:Rule.Minus ~cr:Rule.Minus
        (List.init
           (1 + Prng.int rng 4)
           (fun i ->
             Rule.make
               ~name:(Printf.sprintf "M%d" i)
               ~resource:(Helpers.random_hospital_expr rng)
               (if Prng.bool rng then Rule.Plus else Rule.Minus)))

let rec random_update rng =
  let e = Helpers.random_hospital_expr rng in
  match e.Xmlac_xpath.Ast.steps with
  | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Name "hospital"; _ } ]
  | [ { Xmlac_xpath.Ast.test = Xmlac_xpath.Ast.Wildcard; _ } ] ->
      random_update rng
  | _ -> Pp.expr_to_string e

let isolation_prop =
  QCheck2.Test.make
    ~name:
      "pinned on N: byte-identical decisions before/during/after N+1, all \
       backends"
    ~count:30
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, fault_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = random_policy rng doc in
      let update = random_update rng in
      let queries =
        List.init 4 (fun _ -> Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate_all eng);
      let pinned = Engine.pin_snapshot eng in
      let read () =
        String.concat "\n"
          (List.map
             (fun q ->
               Format.asprintf "%a" Requester.pp (Snapshot.request pinned q))
             queries)
      in
      let before = read () in
      (* Before: full fidelity — the snapshot answers exactly like the
         live engine on every backend at the pinned epoch. *)
      List.iter
        (fun kind ->
          List.iter
            (fun q ->
              let live =
                Format.asprintf "%a" Requester.pp (Engine.request eng kind q)
              in
              let snap =
                Format.asprintf "%a" Requester.pp
                  (Snapshot.request pinned q)
              in
              if live <> snap then
                QCheck2.Test.fail_reportf
                  "snapshot diverges from live %s on %s: %s vs %s"
                  (Engine.backend_kind_to_string kind)
                  q live snap)
            queries)
        Engine.all_backend_kinds;
      (* During: the writer crashes somewhere inside epoch N+1. *)
      Fault.set_seed fault_seed;
      Fault.arm_all ~prob:0.05;
      let crashed =
        match Engine.update eng update with
        | _ -> false
        | exception Fault.Crash _ -> true
      in
      if crashed && read () <> before then
        QCheck2.Test.fail_report
          "pinned reader moved while the writer lay dead mid-epoch";
      if crashed then ignore (Engine.recover eng) else Fault.reset ();
      (* After: N+1 (or its recovery) is committed. *)
      if read () <> before then
        QCheck2.Test.fail_report
          "pinned reader moved after the next epoch committed";
      Engine.unpin_snapshot eng pinned;
      true)

(* ------------------------------------------------------------------ *)
(* The COW ≡ full-copy property: along a random chain of committed
   epochs, every published COW snapshot must answer exactly like a
   deep-copy twin taken at the same instant — same decisions (with and
   without subjects, so the per-role maps are exercised), same visible
   node set, same effective sign at every node.  The twins are
   interrogated only after the whole chain has committed, so the COW
   side answers through carried memos and shared records that later
   epochs path-copied around, while the full side evaluates fresh on a
   private deep copy that shares nothing. *)

let cow_equiv_prop =
  QCheck2.Test.make
    ~name:"COW snapshot ≡ full-copy twin across random epoch chains"
    ~count:20
    QCheck2.Gen.(pair Helpers.seed_gen Helpers.seed_gen)
    (fun (doc_seed, op_seed) ->
      Fault.reset ();
      let rng = Prng.create ~seed:doc_seed in
      let doc = Helpers.random_hospital_doc rng in
      let policy = random_policy rng doc in
      let queries =
        List.init 4 (fun _ ->
            Pp.expr_to_string (Helpers.random_hospital_expr rng))
      in
      let eng = Engine.create ~dtd:W.Hospital.dtd ~policy doc in
      ignore (Engine.annotate_all eng);
      let roles = Policy.roles policy in
      if roles <> [] then ignore (Engine.annotate_subjects_all eng);
      let subjects = None :: List.map Option.some roles in
      let orng = Prng.create ~seed:op_seed in
      let twin () =
        let cow = Engine.pin_snapshot eng in
        let full =
          Snapshot.capture_full
            ~annotated:(Snapshot.annotated cow)
            ~bits_annotated:(Snapshot.bits_annotated cow)
            ~epoch:(Engine.sign_epoch eng) ~policy:(Engine.policy eng)
            ~cam:(Engine.cam eng)
            ~metrics:(Metrics.create ())
            (Engine.document eng)
        in
        (* Reading through the COW side now populates its memo cache,
           so the engine's next publish exercises carry-forward on
           entries this property will re-check at the end. *)
        List.iter
          (fun q -> ignore (Snapshot.request cow q))
          queries;
        (cow, full)
      in
      let pairs = ref [ twin () ] in
      for _ = 1 to 3 do
        (match Prng.int orng 3 with
        | 0 -> ignore (Engine.update eng (random_update orng))
        | 1 -> ignore (Engine.annotate_all eng)
        | _ ->
            if roles <> [] then ignore (Engine.annotate_subjects_all eng)
            else ignore (Engine.update eng (random_update orng)));
        pairs := twin () :: !pairs
      done;
      List.iter
        (fun (cow, full) ->
          if not (Snapshot.cow cow) then
            QCheck2.Test.fail_report "engine snapshot does not share structure";
          if Snapshot.cow full then
            QCheck2.Test.fail_report "capture_full claims sharing";
          if Snapshot.epoch cow <> Snapshot.epoch full then
            QCheck2.Test.fail_report "twins disagree on their epoch";
          (* Visible node set and every effective sign. *)
          let sc = view_signature cow and sf = view_signature full in
          if sc <> sf then
            QCheck2.Test.fail_reportf
              "COW view diverges from full copy at epoch %d: %s vs %s"
              (Snapshot.epoch cow) sc sf;
          (* Decisions, per subject and query. *)
          List.iter
            (fun subject ->
              List.iter
                (fun q ->
                  let d s =
                    Format.asprintf "%a" Requester.pp
                      (Snapshot.request ?subject s q)
                  in
                  let c = d cow and f = d full in
                  if c <> f then
                    QCheck2.Test.fail_reportf
                      "COW decision diverges at epoch %d%s on %s: %s vs %s"
                      (Snapshot.epoch cow)
                      (match subject with
                      | None -> ""
                      | Some r -> " @" ^ r)
                      q c f)
                queries)
            subjects)
        !pairs;
      List.iter (fun (cow, _) -> Engine.unpin_snapshot eng cow) !pairs;
      true)

(* ------------------------------------------------------------------ *)
(* Pool: scheduling semantics. *)

let test_pool_sequential () =
  let pool = Pool.create ~domains:1 () in
  Alcotest.(check bool) "one domain is sequential" true
    (Pool.sequential pool);
  let order = ref [] in
  let out =
    Pool.parallel pool
      (List.init 5 (fun i ->
           fun () ->
             order := i :: !order;
             i * i))
  in
  Alcotest.(check (list int)) "results in submission order"
    [ 0; 1; 4; 9; 16 ] out;
  Alcotest.(check (list int)) "sequential mode runs in order"
    [ 0; 1; 2; 3; 4 ] (List.rev !order);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *)

let test_pool_parallel () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.(check int) "four domains" 4 (Pool.size pool);
  let out = Pool.parallel pool (List.init 32 (fun i -> fun () -> i + 1)) in
  Alcotest.(check (list int)) "indexed results despite racing workers"
    (List.init 32 (fun i -> i + 1))
    out;
  (* A pool survives a failing batch and reports the exception. *)
  (match
     Pool.parallel pool
       [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Failure m -> Alcotest.(check string) "first exn" "boom" m);
  let again = Pool.parallel pool [ (fun () -> 7) ] in
  Alcotest.(check (list int)) "pool reusable after a failure" [ 7 ] again;
  Pool.shutdown pool;
  (match Pool.parallel pool [ (fun () -> 0) ] with
  | _ -> Alcotest.fail "parallel after shutdown did not raise"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Session lifecycle. *)

let test_session_lifecycle () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  let eng = S.engine serve in
  (match Session.open_ ~subject:"nobody" serve with
  | _ -> Alcotest.fail "unknown role accepted"
  | exception Invalid_argument _ -> ());
  let sess = Session.open_ serve in
  let e0 = Session.epoch sess in
  let r0 =
    match Session.request sess "//patient/name" with
    | Ok r -> r
    | Error e -> Alcotest.failf "session read failed: %s" e.S.message
  in
  Alcotest.(check bool) "served pinned" true (r0.S.served = S.Pinned);
  (* The writer commits; the session's epoch and answers hold. *)
  ignore (S.update serve probe_update);
  Alcotest.(check int) "epoch constant across the commit" e0
    (Session.epoch sess);
  (* refresh is the explicit opt-in to the new version. *)
  Session.refresh sess;
  Alcotest.(check int) "refresh re-pins the current epoch"
    (Engine.sign_epoch eng) (Session.epoch sess);
  let live_before_close = Snapshot.live (Engine.snapshots eng) in
  Session.close sess;
  Session.close sess (* idempotent *);
  Alcotest.(check bool) "closed" true (Session.closed sess);
  Alcotest.(check bool) "close releases the pin" true
    (Snapshot.live (Engine.snapshots eng) <= live_before_close);
  (match Session.request sess "//nurse" with
  | _ -> Alcotest.fail "read through a closed session"
  | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Multi-domain smoke: real domains, pinned readers, a churning
   writer; every reply must match the pinned-epoch oracle. *)

let test_multidomain_smoke () =
  Fault.reset ();
  let serve = S.create (annotated_engine ()) in
  let pool = Pool.create ~domains:4 () in
  let readers = 6 in
  let sessions = List.init readers (fun _ -> Session.open_ serve) in
  let oracle =
    List.map
      (fun q ->
        Format.asprintf "%a" Requester.pp
          (Snapshot.request (Session.snapshot (List.hd sessions)) q))
      probe_queries
  in
  let reader sess () =
    let bad = ref 0 in
    for _ = 1 to 8 do
      List.iteri
        (fun i q ->
          match Session.request sess q with
          | Ok r ->
              if
                Format.asprintf "%a" Requester.pp r.S.decision
                <> List.nth oracle i
                || r.S.served <> S.Pinned
              then incr bad
          | Error _ -> incr bad)
        probe_queries
    done;
    !bad
  in
  let writer () =
    ignore (S.update serve probe_update);
    ignore (S.update serve "//patient/psn");
    0
  in
  let bad = Pool.parallel pool (List.map reader sessions @ [ writer ]) in
  Alcotest.(check int) "no stale, unpinned or failed replies" 0
    (List.fold_left ( + ) 0 bad);
  List.iter Session.close sessions;
  Pool.shutdown pool;
  let h = S.health serve in
  Alcotest.(check bool) "layer healthy after the run" true (S.healthy h);
  Fault.reset ()

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "mvcc"
    [
      ( "registry",
        [
          tc "pin/publish/reclaim lifecycle" test_registry_lifecycle;
          tc "engine publishes every commit" test_engine_publishes_on_commit;
        ] );
      ( "isolation",
        [
          tc "pinned reader vs one commit" test_pinned_reader_isolation;
          tc "writer dies mid-epoch, readers unaffected"
            test_crash_sweep_pinned_readers;
        ] );
      ( "sharing",
        [
          tc "cow capture, carry-forward" test_cow_sharing_and_carry;
          tc "cam_check republishes cold" test_cam_check_republishes_cold;
          tc "killed publish never corrupts a pinned neighbor"
            test_cow_kill_never_corrupts_pinned_neighbor;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest isolation_prop;
          QCheck_alcotest.to_alcotest cow_equiv_prop;
        ] );
      ( "frontend",
        [
          tc "pool sequential mode" test_pool_sequential;
          tc "pool parallel barrier" test_pool_parallel;
          tc "session lifecycle" test_session_lifecycle;
          tc "multi-domain smoke" test_multidomain_smoke;
        ] );
    ]
