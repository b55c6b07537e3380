(* The traced run's per-layer measurements.  The benchmark's own code
   times calls into each layer's public functions, replaying the request
   (or write cycle) that was just timed end to end — on the live engine
   for reads, on twins (a copied tree, shredded copies of the relational
   stores, a bare engine kept in lockstep) for everything that would
   otherwise mutate what the workload measures. *)

module Tree = Xmlac_xml.Tree
module Serve = Xmlac_serve.Serve
module Metrics = Xmlac_util.Metrics
module Parser = Xmlac_xpath.Parser
module Eval = Xmlac_xpath.Eval
module Translate = Xmlac_shrex.Translate
module Executor = Xmlac_reldb.Executor
module Database = Xmlac_reldb.Database
module Table = Xmlac_reldb.Table
module Wal = Xmlac_reldb.Wal
open Perfbench
open Xmlac_core

(* Every per-layer metric, in output order, with its unit and how the
   per-call values are reduced: [`Median] of per-call times, [`Mean] of
   per-call counts, or [`Last] for a single run-level value. *)
let spec =
  [
    ("serve.overhead_us", "us", `Median);
    ("cache.hit_ratio", "ratio", `Last);
    ("cache.evictions", "count", `Last);
    ("cache.engine_hit_us", "us", `Median);
    ("cache.snapshot_hit_us", "us", `Median);
    ("xpath.parse_us", "us", `Median);
    ("eval.native_us", "us", `Median);
    ("eval.selected_nodes", "nodes", `Mean);
    ("shrex.translate_us", "us", `Median);
    ("reldb.exec_us", "us", `Median);
    ("cam.check_us", "us", `Median);
    ("cam.lookups", "count", `Mean);
    ("rewrite.compile_ms", "ms", `Median);
    ("rewrite.eval_ms", "ms", `Median);
    ("trigger.us", "us", `Median);
    ("trigger.rules", "count", `Mean);
    ("reannotate.prepare_ms", "ms", `Median);
    ("reannotate.finish_ms", "ms", `Median);
    ("reannotate.affected_nodes", "nodes", `Mean);
    ("reannotate.changed_nodes", "nodes", `Mean);
    ("bits.repass_ms", "ms", `Median);
    ("bits.nodes_stamped", "count", `Mean);
    ("wal.records_per_epoch", "count", `Mean);
    ("wal.bytes_per_epoch", "bytes", `Mean);
    ("snapshot.capture_us", "us", `Median);
    ("snapshot.live", "count", `Mean);
    ("snapshot.carried_decisions", "count", `Mean);
    ("replicate.digest_ms", "ms", `Median);
    ("replicate.apply_ms", "ms", `Median);
    ("replicate.frame_bytes", "bytes", `Mean);
    ("replicate.reships", "count", `Last);
    ("trace.overhead_pct", "%", `Last);
    ("trace.unaccounted_pct", "%", `Last);
  ]

type t = {
  values : (string, float list) Hashtbl.t;
  mutable e2e_ns : float;  (** End-to-end time of the traced operations. *)
  mutable covered_ns : float;  (** The part of it named layers account for. *)
  mutable rewrite_ns : float;  (** Time spent replaying the rewrite lane. *)
  started_ns : int64;
}

let create () =
  {
    values = Hashtbl.create 64;
    e2e_ns = 0.0;
    covered_ns = 0.0;
    rewrite_ns = 0.0;
    started_ns = Clock.now_ns ();
  }

let add t name v =
  Hashtbl.replace t.values name
    (v :: Option.value (Hashtbl.find_opt t.values name) ~default:[])

let set t name v = Hashtbl.replace t.values name [ v ]

(* Times [f ()] and adds its duration, in [scale]-ns units, to [metric];
   returns the result and the duration in nanoseconds. *)
let timed t ?(scale = 1e3) metric f =
  let r, ns = Clock.time f in
  add t metric (ns /. scale);
  (r, ns)

(* ---------- reads ---------- *)

(* Shredded copies of the engine's document for the executor replay:
   the engine keeps its own databases private. *)
type read_twin = { row_db : Database.t; col_db : Database.t }

let read_twin eng =
  let load kind =
    let db = Database.create kind in
    ignore
      (Xmlac_shrex.Shred.load (Engine.mapping eng) ~default_sign:"-" db
         (Tree.copy (Engine.document eng)));
    db
  in
  { row_db = load Table.Row; col_db = load Table.Column }

(* Replays read [r], whose end-to-end call took [latency_ns] and was a
   cache hit iff [hit], through every read-path layer.  [rewrite]: the
   call went through the rewrite lane; otherwise the rewrite lane is
   replayed only while it has used under a quarter of the traced time. *)
let replay_read t eng serve twin ~latency_ns ~hit ~rewrite (r : Inputs.read) =
  let subject = r.Inputs.subject and q = r.Inputs.query in
  let timed ?scale metric f = timed t ?scale metric f in
  (* One untimed hit first, so both timed hits find the same warm path. *)
  ignore (Engine.request ?subject eng r.Inputs.backend q);
  let _, engine_hit =
    timed "cache.engine_hit_us" (fun () ->
        Engine.request ?subject eng r.Inputs.backend q)
  in
  let _, serve_hit = Clock.time (fun () -> Serve.request ?subject serve r.Inputs.backend q) in
  let serve_overhead = serve_hit -. engine_hit in
  add t "serve.overhead_us" (serve_overhead /. 1e3);
  let snap = Engine.current_snapshot eng in
  ignore (Snapshot.request ?subject snap q);
  ignore
    (timed "cache.snapshot_hit_us" (fun () ->
         Snapshot.request ?subject snap q));
  let expr, parse = timed "xpath.parse_us" (fun () -> Parser.parse_exn q) in
  let doc = Engine.document eng in
  let nodes, native = timed "eval.native_us" (fun () -> Eval.eval doc expr) in
  add t "eval.selected_nodes" (float_of_int (List.length nodes));
  let sql, translate =
    timed "shrex.translate_us" (fun () ->
        Translate.translate (Engine.mapping eng) expr)
  in
  let db = match r.Inputs.backend with Engine.Column_sql -> twin.col_db | _ -> twin.row_db in
  let _, exec = timed "reldb.exec_us" (fun () -> Executor.query_ids db sql) in
  let ids = List.map (fun n -> n.Tree.id) nodes in
  let cam = match subject with None -> Engine.cam eng | Some role -> Engine.role_cam eng role in
  let accessible id =
    match Tree.find doc id with Some n -> Cam.lookup cam n = Tree.Plus | None -> false
  in
  let _, check =
    timed "cam.check_us" (fun () -> Requester.decide ~ids ~accessible)
  in
  add t "cam.lookups" (float_of_int (List.length ids));
  let traced_ns = Int64.to_float (Int64.sub (Clock.now_ns ()) t.started_ns) in
  let rewrite_cost =
    if rewrite || t.rewrite_ns < 0.25 *. traced_ns then begin
      let c, compile =
        timed ~scale:1e6 "rewrite.compile_ms" (fun () ->
            Rewrite.compile ~schema:(Engine.schema_graph eng) ~plan:(Engine.plan eng) ?subject
              (Engine.policy eng) expr)
      in
      let _, ev =
        timed ~scale:1e6 "rewrite.eval_ms" (fun () ->
            Rewrite.eval (Engine.backend eng r.Inputs.backend) c)
      in
      t.rewrite_ns <- t.rewrite_ns +. compile +. ev;
      compile +. ev
    end
    else 0.0
  in
  let eval_cost = match r.Inputs.backend with Engine.Native -> native | _ -> translate +. exec in
  let covered =
    if hit then serve_hit
    else if rewrite then serve_overhead +. parse +. rewrite_cost
    else serve_overhead +. parse +. eval_cost +. check
  in
  t.e2e_ns <- t.e2e_ns +. latency_ns;
  t.covered_ns <- t.covered_ns +. covered

(* ---------- writes ---------- *)

let parse = Parser.parse_exn

let touched = function
  | Inputs.Delete q -> [ parse q ]
  | Inputs.Insert { at; fragment } ->
      let root = at ^ "/" ^ (Tree.root fragment).Tree.name in
      [ parse root; parse (root ^ "//*") ]

(* The replication frame's payload size for this operation (the
   frame's own encoding: a tag byte, a space, the operation). *)
let frame_bytes = function
  | Inputs.Delete q -> 2 + String.length q
  | Inputs.Insert { at; fragment } ->
      String.length (Printf.sprintf "I %d\x00%s" (String.length at) at)
      + String.length (Xmlac_xml.Serializer.to_string fragment)

let wal_totals eng =
  List.fold_left
    (fun (r, b) k ->
      match Engine.wal eng k with
      | Some w -> (r + Wal.records w, b + Wal.bytes_logged w)
      | None -> (r, b))
    (0, 0) [ Engine.Row_sql; Engine.Column_sql ]

(* Replays mutation [m] layer by layer.  [twin] is a bare engine in the
   state the mutation starts from; it applies [m] as a replica would
   ([replicate.apply]) and so stays in lockstep with the workload's
   leader.  The trigger, re-annotation, bitmap re-pass and snapshot
   capture run on a copy of [twin]'s native tree.  [digest_of] is the
   engine whose state digest a commit computes.  Returns the replayed
   apply and digest times (ns). *)
let replay_write t ~twin ~digest_of m =
  let timed ?scale metric f = timed t ?scale metric f in
  let schema = Engine.schema_graph twin and depend = Engine.depend twin in
  let policy = Engine.policy twin in
  let default = Policy.ds policy in
  let touched = touched m in
  let res, _ =
    timed "trigger.us" (fun () -> Trigger.run_all ~schema depend ~updates:touched)
  in
  add t "trigger.rules" (float_of_int (List.length (Trigger.all res)));
  let doc = Tree.copy (Engine.document twin) in
  let backend = Xml_backend.make doc in
  let metrics = Metrics.create () in
  let prev = Snapshot.capture ~epoch:0 ~policy ~cam:(Cam.build doc ~default) ~metrics doc in
  let prepared, _ =
    timed ~scale:1e6 "reannotate.prepare_ms" (fun () ->
        Reannotator.prepare ~schema backend depend ~touched)
  in
  let roots =
    match m with
    | Inputs.Delete q -> backend.Backend.delete_update (parse q)
    | Inputs.Insert { at; fragment } ->
        List.length (Xmlac_xmldb.Update.insert_nodes doc ~at:(parse at) ~fragment)
  in
  let stats, _ =
    timed ~scale:1e6 "reannotate.finish_ms" (fun () ->
        Reannotator.finish ~schema backend depend prepared ~deleted_roots:roots)
  in
  add t "reannotate.affected_nodes" (float_of_int stats.Reannotator.affected);
  add t "reannotate.changed_nodes" (float_of_int (List.length stats.Reannotator.changed));
  let bits, _ =
    timed ~scale:1e6 "bits.repass_ms" (fun () ->
        Annotator.annotate_subjects ~schema backend policy)
  in
  add t "bits.nodes_stamped" (float_of_int bits.Annotator.stamped);
  let cam = Cam.build doc ~default in
  ignore
    (timed "snapshot.capture_us" (fun () ->
         Snapshot.capture ~prev ~epoch:1 ~policy ~cam ~metrics doc));
  let _, digest =
    timed ~scale:1e6 "replicate.digest_ms" (fun () ->
        Engine.state_checksum digest_of)
  in
  let r0, b0 = wal_totals twin in
  let _, apply =
    timed ~scale:1e6 "replicate.apply_ms" (fun () ->
        Engine.apply_replica twin (Inputs.shipped_op m))
  in
  let r1, b1 = wal_totals twin in
  add t "wal.records_per_epoch" (float_of_int (r1 - r0));
  add t "wal.bytes_per_epoch" (float_of_int (b1 - b0));
  add t "replicate.frame_bytes" (float_of_int (frame_bytes m));
  (apply, digest)

(* ---------- reduction ---------- *)

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Every metric of [spec] with its value and sample count; a metric the
   run never measured is an error in the benchmark itself. *)
let results t =
  List.map
    (fun (name, unit_, how) ->
      match Hashtbl.find_opt t.values name with
      | None | Some [] -> failwith ("per-layer metric never measured: " ^ name)
      | Some xs ->
          let v = match how with `Median -> Samples.median xs | `Mean -> mean xs | `Last -> List.hd xs in
          (name, v, unit_, List.length xs))
    spec
