(* The three read workloads: read_hot, read_cold and read_unannotated.
   One client, one domain, closed loop through [Serve.request]. *)

module Serve = Xmlac_serve.Serve
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
module Tree = Xmlac_xml.Tree
open Perfbench
open Xmlac_core

let dtd = Xmlac_workload.Xmark.dtd

let engine ~annotate ~policy doc =
  let eng = Engine.create ~dtd ~policy doc in
  if annotate then begin
    ignore (Engine.annotate_all eng);
    ignore (Engine.annotate_subjects_all eng)
  end;
  eng

let served_label = function
  | Serve.Live -> "live"
  | Serve.Degraded -> "degraded"
  | Serve.Pinned -> "pinned"

(* A reply's decision when it was served as [expect]; otherwise the
   reply counts as failed. *)
let decision tally ~expect ~what = function
  | Error e -> Oracle.fail tally (Format.asprintf "%s: %a" what Serve.pp_error e); None
  | Ok { Serve.served; decision; _ } when served = expect -> Some decision
  | Ok { Serve.served; _ } ->
      Oracle.fail tally (Printf.sprintf "%s: served %s" what (served_label served));
      None

let describe (r : Inputs.read) =
  Printf.sprintf "%s on %s as %s" r.Inputs.query
    (Engine.backend_kind_to_string r.Inputs.backend)
    (Inputs.subject_label r.Inputs.subject)

type workload = {
  eng : Engine.t;
  serve : Serve.t;
  next : int -> Inputs.read option;  (** The [i]-th request, if any. *)
  on_reply : int -> Inputs.read -> Requester.decision -> unit;
  rewrite : bool;  (** Requests go through the rewrite lane. *)
}

(* Drives [w] through the closed loop, timing each [Serve.request] into
   [samples]; with [layers], replays each request layer by layer. *)
let drive (run : Report.run) w ~samples ~seconds ~min_samples ~from ?layers () =
  let metrics = Engine.metrics w.eng in
  Report.loop ~seconds ~min_samples ~samples ~from (fun i ->
      match w.next i with
      | None -> false
      | Some r ->
          let hits0 = if layers = None then 0 else Metrics.counter metrics "cache.hits" in
          let res, ns, _ =
            Report.time_call run samples (fun () ->
                Serve.request ?subject:r.Inputs.subject w.serve r.Inputs.backend r.Inputs.query)
          in
          run.tally.Oracle.attempted <- run.tally.Oracle.attempted + 1;
          Option.iter (w.on_reply i r)
            (decision run.tally ~expect:Serve.Live ~what:(describe r) res);
          (match layers with
          | None -> ()
          | Some (l, twin) ->
              let hit = Metrics.counter metrics "cache.hits" > hits0 in
              Layers.replay_read l w.eng w.serve twin ~latency_ns:ns ~hit ~rewrite:w.rewrite r);
          true)

let stale_denials eng = Metrics.counter (Engine.metrics eng) Metrics.stale_snapshot_denials

(* A few seeded mutations replayed layer by layer on an annotated twin
   of the workload's document: the write-path layers on a read
   workload.  [queries] are first answered from the twin's snapshot so
   the capture has decisions to carry forward. *)
let write_probe l ~seed ~policy doc ~queries =
  let twin = engine ~annotate:true ~policy doc in
  let muts = Inputs.mutation_stream ~seed doc in
  for i = 0 to 2 do
    let snap = Engine.current_snapshot twin in
    List.iter (fun q -> ignore (Snapshot.request snap q)) queries;
    let carried () = Metrics.counter (Engine.metrics twin) "snapshot.cache.carried" in
    let c0 = carried () in
    let m = muts i ~size:(Tree.size (Engine.document twin)) in
    ignore (Layers.replay_write l ~twin ~digest_of:twin m);
    Layers.add l "snapshot.carried_decisions" (float_of_int (carried () - c0))
  done

let pct_change ~base v = 100.0 *. (v -. base) /. base

(* Runs [w] for the measured region: untraced, or (with [trace]) half
   untraced and half traced, then the per-layer reduction. *)
let measure (run : Report.run) w ~seconds ~trace ~probe =
  let stale0 = stale_denials w.eng in
  if not trace then
    ignore
      (drive run w ~samples:run.Report.reads ~seconds ~min_samples:(Samples.needed 99.0)
         ~from:0 ())
  else begin
    let l = Layers.create () in
    let metrics = Engine.metrics w.eng in
    let cache = Engine.decision_cache w.eng in
    let h0 = Metrics.counter metrics "cache.hits" and m0 = Metrics.counter metrics "cache.misses" in
    let e0 = Decision_cache.evictions cache in
    let half = seconds /. 2.0 and min_samples = Samples.needed 50.0 in
    let n = drive run w ~samples:run.Report.reads ~seconds:half ~min_samples ~from:0 () in
    let hits = Metrics.counter metrics "cache.hits" - h0 in
    let misses = Metrics.counter metrics "cache.misses" - m0 in
    Layers.set l "cache.hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
    Layers.set l "cache.evictions" (float_of_int (Decision_cache.evictions cache - e0));
    let twin = Layers.read_twin w.eng in
    let traced = Samples.create () in
    ignore (drive run w ~samples:traced ~seconds:half ~min_samples ~from:n ~layers:(l, twin) ());
    let p50 s = Report.pct s 50.0 ~scale:1.0 in
    Layers.set l "trace.overhead_pct" (pct_change ~base:(p50 run.Report.reads) (p50 traced));
    Layers.set l "trace.unaccounted_pct"
      (100.0 *. (l.Layers.e2e_ns -. l.Layers.covered_ns) /. l.Layers.e2e_ns);
    Layers.add l "snapshot.live" (float_of_int (Snapshot.live (Engine.snapshots w.eng)));
    Layers.set l "replicate.reships" 0.0;
    probe l;
    run.Report.layers <- Layers.results l
  end;
  Report.note_heap run;
  let stale = stale_denials w.eng - stale0 in
  if stale > 0 then begin
    run.Report.tally.Oracle.failed <- run.Report.tally.Oracle.failed + stale;
    Oracle.note run.Report.tally (Printf.sprintf "%d stale snapshot denials" stale)
  end

let first_queries reads n = List.init n (fun i -> reads.(i).Inputs.query)

let record_doc run key eng =
  Report.record_input run key (Json.Int (Tree.size (Engine.document eng)))

(* ---------- read_hot ---------- *)

let hot (run : Report.run) ~seed ~seconds ~trace =
  let doc = Inputs.document 0.1 in
  let policy = Inputs.policy doc in
  let eng, serve =
    Report.setups run ~times:5 (fun () ->
        let eng = engine ~annotate:true ~policy doc in
        (eng, Serve.create eng))
  in
  record_doc run "nodes_start" eng;
  let pick = Inputs.rng seed 1 in
  let keys =
    Array.of_list
      (List.concat_map
         (fun query ->
           List.map
             (fun backend -> { Inputs.query; backend; subject = Prng.choose_list pick Inputs.subjects })
             Engine.all_backend_kinds)
         (Inputs.hot_queries ()))
  in
  let nkeys = Array.length keys in
  Report.record_input run "hot_keys" (Json.Int nkeys);
  Report.record_input run "cache_capacity" (Json.Int (Decision_cache.capacity (Engine.decision_cache eng)));
  (* Oracle: request_direct on all three stores agrees, per key. *)
  let expected =
    Array.map
      (fun (r : Inputs.read) ->
        let d b = Oracle.digest (Engine.request_direct ?subject:r.Inputs.subject eng b r.Inputs.query) in
        let native = d Engine.Native in
        List.iter
          (fun b -> Oracle.check run.Report.tally ~what:("cross-store " ^ describe r) ~expected:native (d b))
          [ Engine.Row_sql; Engine.Column_sql ];
        native)
      keys
  in
  (* A reply physically equal to the key's last verified one (a cache
     hit) needs no digest. *)
  let verified = Array.make nkeys None in
  let order = Inputs.rng seed 2 in
  let last = ref 0 in
  let w =
    {
      eng;
      serve;
      next =
        (fun _ ->
          last := Prng.int order nkeys;
          Some keys.(!last));
      on_reply =
        (fun _ r d ->
          let k = !last in
          match verified.(k) with
          | Some v when v == d -> ()
          | _ ->
              Oracle.check run.Report.tally ~what:(describe r) ~expected:expected.(k) (Oracle.digest d);
              verified.(k) <- Some d);
      rewrite = false;
    }
  in
  (* Warm-up: every key once, which also builds the per-role CAMs. *)
  Array.iter (fun (r : Inputs.read) ->
      ignore (Serve.request ?subject:r.Inputs.subject serve r.Inputs.backend r.Inputs.query)) keys;
  measure run w ~seconds ~trace ~probe:(fun l ->
      write_probe l ~seed ~policy doc ~queries:(first_queries keys 32));
  record_doc run "nodes_end" eng

(* ---------- fresh-query streams (read_cold, read_unannotated) ---------- *)

(* A stream of distinct queries, each sent once: backends round-robin,
   subjects seeded.  Replies are digested in the loop and checked
   against an oracle afterwards. *)
let fresh_stream ~seed ~pool eng serve ~rewrite =
  let queries = Inputs.query_pool ~seed ~tag:3 ~n:pool ~exclude:(Inputs.hot_queries ()) in
  let subj = Inputs.rng seed 4 in
  let backends = Array.of_list Engine.all_backend_kinds in
  let reads =
    Array.mapi
      (fun i query ->
        { Inputs.query; backend = backends.(i mod 3); subject = Prng.choose_list subj Inputs.subjects })
      queries
  in
  (* Allocated whole, so the heap does not grow with the requests sent. *)
  let digests = Array.make (Array.length reads) None in
  let w =
    {
      eng;
      serve;
      next = (fun i -> if i < Array.length reads then Some reads.(i) else None);
      on_reply = (fun i _ d -> digests.(i) <- Some (Oracle.digest d));
      rewrite;
    }
  in
  (w, reads, digests)

(* Warm-up requests from a pool disjoint from the measured stream. *)
let warm ~seed serve n =
  Array.iteri
    (fun i q ->
      let subject = List.nth Inputs.subjects (i mod List.length Inputs.subjects) in
      ignore (Serve.request ?subject serve (List.nth Engine.all_backend_kinds (i mod 3)) q))
    (Inputs.query_pool ~seed ~tag:5 ~n ~exclude:[])

(* Checks every digested reply with [check read digest], in request
   order, and records how many distinct queries were sent. *)
let verify (run : Report.run) reads digests check =
  Report.record_input run "queries_sent"
    (Json.Int (Array.fold_left (fun n d -> if d = None then n else n + 1) 0 digests));
  Array.iteri (fun i d -> Option.iter (check reads.(i)) d) digests

let cold (run : Report.run) ~seed ~seconds ~trace =
  let doc = Inputs.document 0.1 in
  let policy = Inputs.policy doc in
  let eng, serve =
    Report.setups run ~times:5 (fun () ->
        let eng = engine ~annotate:true ~policy doc in
        (eng, Serve.create eng))
  in
  record_doc run "nodes_start" eng;
  Report.stage "set-up done";
  (* Enough distinct queries for a fast machine's run; a run that uses
     them all ends early. *)
  let w, reads, digests = fresh_stream ~seed ~pool:48_000 eng serve ~rewrite:false in
  warm ~seed serve 270;
  Report.stage "warm";
  measure run w ~seconds ~trace ~probe:(fun l ->
      write_probe l ~seed ~policy doc ~queries:(first_queries reads 32));
  Report.stage "measured";
  (* Oracle, on a seeded half of the replies: the reply equals
     request_direct on the native store (the fast lane and the other
     stores against the reference path); a quarter of those are also
     answered directly by all three stores, which must agree. *)
  let sample = Inputs.rng seed 6 in
  verify run reads digests (fun r got ->
      let pick = Prng.int sample 8 in
      if pick < 4 then begin
        let d b = Oracle.digest (Engine.request_direct ?subject:r.Inputs.subject eng b r.Inputs.query) in
        let native = d Engine.Native in
        Oracle.check run.Report.tally ~what:(describe r) ~expected:native got;
        if pick = 0 then
          List.iter
            (fun b -> Oracle.check run.Report.tally ~what:("cross-store " ^ describe r) ~expected:native (d b))
            [ Engine.Row_sql; Engine.Column_sql ]
      end);
  Report.stage "verified";
  record_doc run "nodes_end" eng

(* ---------- read_unannotated ---------- *)

let unannotated (run : Report.run) ~seed ~seconds ~trace =
  let doc = Inputs.document 0.01 in
  let policy = Inputs.policy doc in
  let eng, serve =
    Report.setups run ~times:25 (fun () ->
        let eng = engine ~annotate:false ~policy doc in
        (eng, Serve.create eng))
  in
  record_doc run "nodes_start" eng;
  List.iter
    (fun b ->
      List.iter
        (fun subject ->
          match Engine.resolve_lane ?subject eng b with
          | Rewrite.Rewrite, _ -> ()
          | _, why -> failwith ("read_unannotated: auto lane is not the rewrite lane: " ^ why))
        Inputs.subjects)
    Engine.all_backend_kinds;
  let w, reads, digests = fresh_stream ~seed ~pool:4_000 eng serve ~rewrite:true in
  warm ~seed serve 9;
  Report.stage "warm";
  measure run w ~seconds ~trace ~probe:(fun l ->
      write_probe l ~seed ~policy doc ~queries:(first_queries reads 32));
  Report.stage "measured";
  (* The oracle: the materialized lane on an annotated twin, built after
     the heap figure is taken. *)
  let twin = engine ~annotate:true ~policy doc in
  verify run reads digests (fun r got ->
      Oracle.check run.Report.tally ~what:("rewrite vs materialized " ^ describe r)
        ~expected:
          (Oracle.digest
             (Engine.request ~lane:Rewrite.Materialized ?subject:r.Inputs.subject twin
                r.Inputs.backend r.Inputs.query))
        got);
  record_doc run "nodes_end" eng
