(* write_mix: a leader and one follower ([Replicate], chaos off) over the
   790-node document.  Each cycle commits one seeded mutation on the
   leader, ships and applies it ([Replicate.sync]), then sends 16 reads:
   eight to the leader through [Serve.request], eight to the follower
   through [Replicate.read].  Outside the timed calls the cluster is
   re-created whenever the leader's document leaves the size band. *)

module Serve = Xmlac_serve.Serve
module Repl = Xmlac_replicate.Replicate
module Metrics = Xmlac_util.Metrics
module Prng = Xmlac_util.Prng
module Tree = Xmlac_xml.Tree
open Perfbench
open Xmlac_core

let factor = 0.01
let band = (0.6, 1.4)
let reads_per_cycle = 16

type cluster = {
  cl : Repl.t;
  serve : Serve.t;  (** A serving layer over the leader's engine. *)
  twin : Engine.t option;
      (** Traced runs: a bare engine in lockstep with the leader; each
          mutation reaches it through [Engine.apply_replica]. *)
}

let leader c = Repl.leader_engine c.cl
let follower c = Repl.engine c.cl 1

let expect_ok what = function
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "write_mix %s: %a" what Serve.pp_error e)

let build ~policy doc =
  let cl = Repl.create ~followers:1 ~dtd:Reads.dtd ~policy doc in
  expect_ok "annotate" (Repl.annotate_all cl);
  expect_ok "annotate subjects" (Repl.annotate_subjects_all cl);
  if not (Repl.sync cl) then failwith "write_mix: initial sync did not converge";
  cl

let mutate cl = function
  | Inputs.Delete q -> Repl.update cl q
  | Inputs.Insert { at; fragment } -> Repl.insert cl ~at ~fragment

(* Grants the follower made that the leader, at the same epoch, did not. *)
let follower_overgrants ~leader_decision follower_decision =
  match (follower_decision, leader_decision) with
  | Requester.Granted f, Requester.Granted l -> f <> l
  | Requester.Granted _, Requester.Denied _ -> true
  | Requester.Denied _, _ -> false

let run (run : Report.run) ~seed ~seconds ~trace =
  let doc = Inputs.document factor in
  let n0 = Tree.size doc in
  let lo = int_of_float (fst band *. float_of_int n0)
  and hi = int_of_float (snd band *. float_of_int n0) in
  let policy = Inputs.policy doc in
  let cl = Report.setups run ~times:3 (fun () -> build ~policy doc) in
  let fresh cl =
    {
      cl;
      serve = Serve.create (Repl.leader_engine cl);
      twin = (if trace then Some (Reads.engine ~annotate:true ~policy doc) else None);
    }
  in
  (* The cluster in use; [None] only while it is being re-created. *)
  let current = ref (Some (fresh cl)) in
  let cur () = Option.get !current in
  Report.record_input run "nodes_start" (Json.Int n0);
  Report.record_input run "size_band" (Json.List [ Json.Int lo; Json.Int hi ]);
  let queries = Inputs.query_pool ~seed ~tag:3 ~n:4000 ~exclude:[] in
  let subj = Inputs.rng seed 4 in
  let next_read =
    let i = ref 0 in
    fun () ->
      let q = queries.(!i mod Array.length queries) in
      incr i;
      {
        Inputs.query = q;
        backend = List.nth Engine.all_backend_kinds (!i mod 3);
        subject = Prng.choose_list subj Inputs.subjects;
      }
  in
  let muts = Inputs.mutation_stream ~seed doc in
  let tally = run.Report.tally in
  let rebuilds = ref 0 and reships = ref 0 in
  let retire c =
    if not (Engine.consistent (leader c)) then
      Oracle.wrong tally "leader stores disagree (Engine.consistent)";
    reships := !reships + Metrics.counter (Repl.metrics c.cl) "repl.reshipped"
  in
  (* Leader-read cache figures for the traced run, counted around the
     measured reads only (the layer replays come after them). *)
  let cache_hits = ref 0 and cache_reads = ref 0 and cache_evictions = ref 0 in
  (* One cycle; [layers] replays it layer by layer. *)
  let cycle ~commits ~applies ~reads ?layers k =
    let c = cur () in
    let ld = leader c in
    let m = muts k ~size:(Tree.size (Engine.document ld)) in
    let carried () = Metrics.counter (Engine.metrics (follower c)) "snapshot.cache.carried" in
    let carried0 = carried () in
    tally.Oracle.attempted <- tally.Oracle.attempted + 1;
    let committed, commit_ns, _ = Report.time_call run commits (fun () -> mutate c.cl m) in
    Serve.refresh_snapshot c.serve;
    let synced, apply_ns, _ = Report.time_call run applies (fun () -> Repl.sync c.cl) in
    (match committed with
    | Error e -> Oracle.fail tally (Format.asprintf "%s: %a" (Inputs.mutation_label m) Serve.pp_error e)
    | Ok () when not synced -> Oracle.fail tally ("sync did not converge after " ^ Inputs.mutation_label m)
    | Ok () ->
        run.Report.epochs <- run.Report.epochs + 1;
        if Engine.state_checksum ld <> Engine.state_checksum (follower c) then
          Oracle.wrong tally ("follower digest differs after " ^ Inputs.mutation_label m));
    let leader_reads = ref [] in
    let cache = Engine.decision_cache ld and metrics = Engine.metrics ld in
    for j = 0 to reads_per_cycle - 1 do
      let r = next_read () in
      let subject = r.Inputs.subject in
      tally.Oracle.attempted <- tally.Oracle.attempted + 1;
      let measured paced samples = if reads == run.Report.reads then Samples.add samples paced in
      if j mod 2 = 0 then begin
        let hits0 = Metrics.counter metrics "cache.hits" and ev0 = Decision_cache.evictions cache in
        let res, ns, paced =
          Report.time_call run reads (fun () ->
              Serve.request ?subject c.serve r.Inputs.backend r.Inputs.query)
        in
        measured paced run.Report.leader_reads;
        let hit = Metrics.counter metrics "cache.hits" > hits0 in
        incr cache_reads;
        if hit then incr cache_hits;
        cache_evictions := !cache_evictions + Decision_cache.evictions cache - ev0;
        ignore (Reads.decision tally ~expect:Serve.Live ~what:("leader " ^ Reads.describe r) res);
        leader_reads := (r, ns, hit) :: !leader_reads
      end
      else
        let res, _, paced =
          Report.time_call run reads (fun () -> Repl.read ?subject c.cl ~node:1 r.Inputs.query)
        in
        measured paced run.Report.follower_reads;
        match Reads.decision tally ~expect:Serve.Pinned ~what:("follower " ^ r.Inputs.query) res with
        | None -> ()
        | Some d ->
            let leader_decision = Engine.request ?subject ld Engine.Native r.Inputs.query in
            if follower_overgrants ~leader_decision d then
              Oracle.wrong tally ("follower grants what the leader denies: " ^ Reads.describe r)
    done;
    (match (layers, c.twin) with
    | _, None -> ()
    | None, Some twin ->
        (* Untimed: the twin follows the leader through every mutation. *)
        if Result.is_ok committed then Engine.apply_replica twin (Inputs.shipped_op m)
    | Some l, Some twin ->
        Layers.add l "snapshot.carried_decisions" (float_of_int (carried () - carried0));
        Layers.add l "snapshot.live" (float_of_int (Snapshot.live (Engine.snapshots ld)));
        let apply, digest = Layers.replay_write l ~twin ~digest_of:ld m in
        l.Layers.e2e_ns <- l.Layers.e2e_ns +. commit_ns +. apply_ns;
        l.Layers.covered_ns <- l.Layers.covered_ns +. (2.0 *. (apply +. digest));
        let dbs = Layers.read_twin ld in
        List.iter
          (fun (r, ns, hit) -> Layers.replay_read l ld c.serve dbs ~latency_ns:ns ~hit ~rewrite:false r)
          (List.rev !leader_reads));
    Option.iter
      (fun twin ->
        if Tree.size (Engine.document twin) <> Tree.size (Engine.document ld) then
          failwith "write_mix: the traced run's twin is out of lockstep with the leader")
      c.twin;
    true
  in
  (* Outside the timed calls: keep the document inside the band.  The
     old cluster is dropped and collected before the new one is built. *)
  let keep_in_band () =
    let size = Tree.size (Engine.document (leader (cur ()))) in
    if size < lo || size > hi then begin
      retire (cur ());
      incr rebuilds;
      current := None;
      Gc.full_major ();
      current := Some (fresh (build ~policy doc))
    end
  in
  let cycle ~commits ~applies ~reads ?layers k =
    let ok = cycle ~commits ~applies ~reads ?layers k in
    keep_in_band ();
    ok
  in
  (* Warm-up: two cycles whose timings and counts are discarded. *)
  let busy = run.Report.busy_ns and attempted = tally.Oracle.attempted in
  for k = -2 to -1 do
    ignore (cycle ~commits:(Samples.create ()) ~applies:(Samples.create ()) ~reads:(Samples.create ()) k)
  done;
  run.Report.busy_ns <- busy;
  run.Report.epochs <- 0;
  tally.Oracle.attempted <- attempted;
  let measured = cycle ~commits:run.Report.commits ~applies:run.Report.applies ~reads:run.Report.reads in
  if not trace then
    ignore (Report.loop ~seconds ~min_samples:(Samples.needed 90.0) ~samples:run.Report.commits measured)
  else begin
    (* Untraced and traced cycles alternate in pairs.  The mutations
       alternate delete, insert, so each side sees both kinds and the
       same drift of the document's size. *)
    let l = Layers.create () in
    let traced = Samples.create () in
    ignore
      (Report.loop ~seconds ~min_samples:(Samples.needed 50.0) ~samples:traced (fun k ->
           if k / 2 mod 2 = 0 then measured k
           else cycle ~commits:traced ~applies:(Samples.create ()) ~reads:(Samples.create ()) ~layers:l k));
    Layers.set l "cache.hit_ratio" (float_of_int !cache_hits /. float_of_int (max 1 !cache_reads));
    Layers.set l "cache.evictions" (float_of_int !cache_evictions);
    let p50 s = Report.pct s 50.0 ~scale:1.0 in
    Layers.set l "trace.overhead_pct" (Reads.pct_change ~base:(p50 run.Report.commits) (p50 traced));
    Layers.set l "trace.unaccounted_pct"
      (100.0 *. (l.Layers.e2e_ns -. l.Layers.covered_ns) /. l.Layers.e2e_ns);
    Layers.set l "replicate.reships"
      (float_of_int (!reships + Metrics.counter (Repl.metrics (cur ()).cl) "repl.reshipped"));
    run.Report.layers <- Layers.results l
  end;
  retire (cur ());
  Report.note_heap run;
  Report.record_input run "nodes_end" (Json.Int (Tree.size (Engine.document (leader (cur ())))));
  Report.record_input run "rebuilds" (Json.Int !rebuilds);
  Report.record_input run "cycles" (Json.Int run.Report.epochs)
