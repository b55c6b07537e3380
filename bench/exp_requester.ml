(* Requester fast lane: queries/sec with and without the CAM +
   decision cache (PR 2), plus the cost of keeping the CAM current
   across document updates.

   Not a paper artifact — this measures the engine extension that
   serves repeated read traffic: the same query workload is replayed
   several rounds against (a) the pre-fast-lane requester (per-node
   sign reads, no cache) and (b) Engine.request (CAM-checked
   accessibility, memoized in the current snapshot's bounded decision
   cache).

   Expected shape: the fast lane wins >= 5x on a repeated workload
   (rounds 2..n are pure cache hits); incremental CAM maintenance
   after a delete update touches no more nodes than the
   re-annotator's affected region. *)

module Tree = Xmlac_xml.Tree
module Timing = Xmlac_util.Timing
module Tabular = Xmlac_util.Tabular
module Metrics = Xmlac_util.Metrics
open Xmlac_core

let rounds = 20

let kind_label = function
  | Engine.Native -> "xquery"
  | Engine.Column_sql -> "monetsql"
  | Engine.Row_sql -> "postgres"

let run (cfg : Bench_common.config) =
  Bench_common.section
    "Requester fast lane: incremental CAM + decision cache";
  let factor = 0.01 in
  let doc = Bench_common.doc factor in
  let policy = Bench_common.mid_coverage_policy factor in
  let queries =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.response_queries ~n:cfg.Bench_common.query_count
         ())
  in
  let eng = Engine.create ~dtd:Xmlac_workload.Xmark.dtd ~policy doc in
  let _ = Engine.annotate_all eng in
  Printf.printf "document: %d nodes (factor %s); %d queries x %d rounds\n"
    (Tree.size (Engine.document eng))
    (Bench_common.pp_factor factor)
    (List.length queries) rounds;
  Format.printf "%a@." Cam.pp (Engine.cam eng);
  let total = List.length queries * rounds in
  let replay req =
    let _, elapsed =
      Timing.time (fun () ->
          for _ = 1 to rounds do
            List.iter (fun q -> ignore (req q)) queries
          done)
    in
    float_of_int total /. elapsed
  in
  let t =
    Tabular.create
      ~headers:
        [ "backend"; "direct q/s"; "fastlane q/s"; "speedup"; "hit rate" ]
  in
  let summary = ref [] in
  List.iter
    (fun kind ->
      let direct = replay (fun q -> Engine.request_direct eng kind q) in
      Metrics.reset (Engine.metrics eng);
      let fast = replay (fun q -> Engine.request eng kind q) in
      let hit_rate =
        Metrics.hit_rate (Engine.metrics eng) ~hits:"cache.hits"
          ~misses:"cache.misses"
      in
      let label = kind_label kind in
      summary :=
        (label, direct, fast, hit_rate) :: !summary;
      Tabular.add_row t
        [
          label;
          Printf.sprintf "%.0f" direct;
          Printf.sprintf "%.0f" fast;
          Printf.sprintf "%.1fx" (fast /. direct);
          Printf.sprintf "%.1f%%" (100.0 *. hit_rate);
        ])
    Engine.all_backend_kinds;
  Tabular.print t;

  (* Incremental maintenance: delete updates must repair the CAM by
     touching at most the re-annotator's affected region, and the
     repaired map must equal a fresh build.  Walk the figure-12 update
     workload until one actually triggers rules, so the check is not
     vacuous. *)
  let updates =
    List.map Xmlac_xpath.Pp.expr_to_string
      (Xmlac_workload.Queries.delete_updates ~n:10 ())
  in
  let rec first_nonvacuous = function
    | [] -> ("(no triggering update in workload)", 0)
    | u :: rest -> (
        Metrics.reset (Engine.metrics eng);
        let stats = Engine.update eng u in
        match List.assoc_opt Engine.Native stats with
        | Some s when s.Reannotator.affected > 0 ->
            (u, s.Reannotator.affected)
        | _ -> if rest = [] then (u, 0) else first_nonvacuous rest)
  in
  let update, affected = first_nonvacuous updates in
  let touched = Metrics.counter (Engine.metrics eng) "cam.touched" in
  let purged = Metrics.counter (Engine.metrics eng) "cam.purged" in
  let consistent = Engine.cam_check eng in
  Printf.printf
    "update %s: affected region %d node(s); CAM touched %d node(s) (%s), \
     purged %d dead entr%s; incremental map %s fresh build\n"
    update affected touched
    (if touched <= affected then "<= affected, ok"
     else "EXCEEDS affected region")
    purged
    (if purged = 1 then "y" else "ies")
    (if consistent then "equals" else "DIVERGED from");

  (* Machine-readable block for the CI artifact. *)
  print_endline "summary:";
  List.iter
    (fun (label, direct, fast, hit_rate) ->
      Printf.printf
        "  requester.%s: direct_qps=%.0f fastlane_qps=%.0f speedup=%.1f \
         cache_hit_rate=%.3f\n"
        label direct fast (fast /. direct) hit_rate)
    (List.rev !summary);
  Printf.printf
    "  requester.cam: touched=%d purged=%d affected=%d consistent=%b\n"
    touched purged affected consistent;
  print_endline
    "expected shape: fastlane >= 5x direct on every backend (rounds 2+ are \
     cache hits); CAM touched <= affected."
