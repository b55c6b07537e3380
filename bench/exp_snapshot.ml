(* Snapshot publication: deep-copy capture versus copy-on-write
   structural sharing.

   Not a paper artifact — the paper materializes one accessibility map
   in place; this measures the MVCC extension's publish path.  Each
   ladder rung materializes an annotated xmark document and its CAM,
   then commits [epochs] sign epochs of a fixed [change_set] size,
   publishing every epoch through a registry twice: once with
   [Snapshot.capture_full] (a deep copy, O(document)) and once with
   [Snapshot.capture] (an O(1) freeze; the epoch's writes path-copy
   O(changed) records).

   Expected shape: full-copy publish grows linearly with the document
   while COW publish stays flat — the hard assertion below demands
   p99 within 2x across a >= 16x document growth — and pinned history
   costs the change sets, not the copies: a thousand pinned epochs of
   the largest document must stay far below a thousand deep copies.
   The driver exits non-zero when either assertion fails, so CI fails
   loudly on a sharing regression. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
open Xmlac_core

let ladder = [ 0.001; 0.01; 0.1 ]
let epochs = 400
let change_set = 32
let pinned_target = 1000

(* Nearest-rank percentiles over the per-epoch publish times. *)
let pct samples p = Timing.percentile samples ~p

let live_bytes () =
  Gc.full_major ();
  let s = Gc.stat () in
  s.Gc.live_words * (Sys.word_size / 8)

(* A committed materialization to snapshot: signs stamped by the
   single-subject annotator, plus the CAM the engine would serve
   from. *)
let materialize factor =
  let doc = Bench_common.doc factor in
  let backend = Xml_backend.make doc in
  let policy = Bench_common.mid_coverage_policy factor in
  ignore (Annotator.annotate ~schema:Bench_common.schema_graph backend policy);
  let cam = Cam.build doc ~default:Tree.Minus in
  (doc, cam, policy)

(* The fixed change set: [change_set] random non-root nodes whose sign
   flips every epoch.  The flip is a real annotation write — it
   path-copies the node and its spine under COW — and the CAM is
   maintained incrementally exactly as the engine's commit would. *)
let pick_targets rng doc =
  let nodes =
    List.filter (fun (n : Tree.node) -> Tree.parent n <> None) (Tree.nodes doc)
  in
  let arr = Array.of_list nodes in
  List.init (min change_set (Array.length arr)) (fun _ ->
      arr.(Prng.int rng (Array.length arr)).Tree.id)

let mutate_epoch doc cam targets e =
  let sign = if e land 1 = 0 then Tree.Plus else Tree.Minus in
  List.iter
    (fun id ->
      match Tree.find doc id with
      | Some n -> Tree.set_sign doc n (Some sign)
      | None -> ())
    targets;
  ignore (Cam.apply_changes cam doc ~changed:targets)

(* One publishing lane: [epochs] commits, each mutating the change set
   (untimed) and then capturing + publishing (timed).  Nothing is
   pinned, so every publish reclaims its predecessor — the steady
   serving pattern. *)
let run_lane ~cow factor =
  let doc, cam, policy = materialize factor in
  let rng = Prng.create ~seed:42L in
  let targets = pick_targets rng doc in
  let metrics = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics () in
  let samples = Array.make epochs 0.0 in
  Gc.full_major ();
  for e = 0 to epochs - 1 do
    mutate_epoch doc cam targets e;
    let _, dt =
      Timing.time (fun () ->
          let snap =
            if cow then
              Snapshot.capture
                ?prev:(Snapshot.current reg)
                ~epoch:e ~policy ~cam ~metrics doc
            else
              Snapshot.capture_full ~epoch:e ~policy ~cam ~metrics doc
          in
          Snapshot.publish reg snap)
    in
    samples.(e) <- dt
  done;
  (Tree.size doc, samples)

(* Pinned history on one document: publish [n] COW epochs and pin each
   one, then weigh the whole retained chain.  The full-copy cost is
   estimated from a handful of genuinely retained deep copies — a
   thousand of them would not fit the bench machine, which is rather
   the point. *)
let pinned_history factor n =
  let doc, cam, policy = materialize factor in
  let rng = Prng.create ~seed:43L in
  let targets = pick_targets rng doc in
  let metrics = Metrics.create () in
  let reg = Snapshot.create_registry ~metrics () in
  let before = live_bytes () in
  let pins = ref [] in
  for e = 0 to n - 1 do
    mutate_epoch doc cam targets e;
    let snap =
      Snapshot.capture
        ?prev:(Snapshot.current reg)
        ~epoch:e ~policy ~cam ~metrics doc
    in
    Snapshot.publish reg snap;
    pins := Snapshot.pin reg :: !pins
  done;
  let cow_bytes = live_bytes () - before in
  (* Per-copy weight from 8 retained deep copies. *)
  let probe = 8 in
  let before_full = live_bytes () in
  let copies = ref [] in
  for _ = 1 to probe do
    copies := Tree.copy doc :: !copies
  done;
  let per_copy = (live_bytes () - before_full) / probe in
  ignore (Sys.opaque_identity !copies);
  copies := [];
  let live = Snapshot.live reg in
  List.iter (fun p -> Snapshot.unpin reg p) !pins;
  (cow_bytes, per_copy * n, live)

let run (_cfg : Bench_common.config) =
  Bench_common.section "Snapshot publication: full copy vs structural sharing";
  Printf.printf
    "%d epochs per rung, change set %d signs per epoch, ladder %s\n"
    epochs change_set
    (String.concat "/" (List.map Bench_common.pp_factor ladder));
  let t =
    Tabular.create
      ~headers:
        [ "factor"; "nodes"; "lane"; "p50"; "p99"; "p99 us"; "vs full p50" ]
  in
  let rows = ref [] in
  List.iter
    (fun factor ->
      let nodes_full, full = run_lane ~cow:false factor in
      let nodes_cow, cow = run_lane ~cow:true factor in
      assert (nodes_full = nodes_cow);
      let add lane samples other_p50 =
        Tabular.add_row t
          [
            Bench_common.pp_factor factor;
            string_of_int nodes_full;
            lane;
            Bench_common.pp_secs (pct samples 50.0);
            Bench_common.pp_secs (pct samples 99.0);
            Printf.sprintf "%.1f" (pct samples 99.0 *. 1e6);
            (match other_p50 with
            | None -> "-"
            | Some f -> Printf.sprintf "%.1fx" (f /. pct samples 50.0));
          ]
      in
      add "full" full None;
      add "cow" cow (Some (pct full 50.0));
      rows := (factor, nodes_full, full, cow) :: !rows)
    ladder;
  Tabular.print t;
  let rows = List.rev !rows in

  (* Pinned history on the largest rung. *)
  let largest = List.nth ladder (List.length ladder - 1) in
  let cow_bytes, full_estimate, live = pinned_history largest pinned_target in
  Printf.printf
    "\npinned history: %d pinned epochs on factor %s -> %d live snapshots, \
     %s resident (deep copies would need ~%s)\n"
    pinned_target
    (Bench_common.pp_factor largest)
    live
    (Bench_common.pp_bytes (max cow_bytes 0))
    (Bench_common.pp_bytes full_estimate);

  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  List.iter
    (fun (factor, nodes, full, cow) ->
      Printf.printf
        "  snapshot.%s: nodes=%d full_p50_s=%.6f full_p99_s=%.6f \
         cow_p50_s=%.6f cow_p99_s=%.6f speedup_p50=%.1fx\n"
        (Bench_common.pp_factor factor)
        nodes (pct full 50.0) (pct full 99.0) (pct cow 50.0) (pct cow 99.0)
        (pct full 50.0 /. pct cow 50.0))
    rows;
  Printf.printf
    "  snapshot.pinned: epochs=%d cow_bytes=%d full_estimate_bytes=%d\n"
    pinned_target (max cow_bytes 0) full_estimate;

  (* Hard assertions: a sharing regression fails the bench run. *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (match (rows, List.rev rows) with
  | (f0, n0, _, cow0) :: _, (f1, n1, _, cow1) :: _ when f0 <> f1 ->
      if n1 < 16 * n0 then
        fail "ladder too flat: %d -> %d nodes is below the 16x floor" n0 n1;
      (* The 64us floor absorbs scheduler and GC-slice jitter on
         publishes that complete in single-digit microseconds: a
         publish that regressed to O(document) costs milliseconds at
         this rung (see the full lane), far above the floor. *)
      let allowed = max (2.0 *. pct cow0 99.0) 64e-6 in
      if pct cow1 99.0 > allowed then
        fail
          "COW publish is not sublinear: p99 %.1fus at %d nodes vs %.1fus at \
           %d nodes (allowed %.1fus)"
          (pct cow1 99.0 *. 1e6)
          n1
          (pct cow0 99.0 *. 1e6)
          n0 (allowed *. 1e6)
  | _ -> fail "ladder produced no rows");
  (match List.rev rows with
  | (_, _, full, cow) :: _ ->
      if pct cow 50.0 > pct full 50.0 then
        fail "COW publish slower than a deep copy on the largest document"
  | [] -> ());
  if cow_bytes > full_estimate / 4 then
    fail
      "pinned COW history is not bounded: %d bytes vs %d for deep copies"
      cow_bytes full_estimate;
  match !failures with
  | [] -> print_endline "assertions: COW publish sublinear, pinned history bounded"
  | fs ->
      List.iter (fun f -> Printf.printf "ASSERTION FAILED: %s\n" f) fs;
      exit 1
