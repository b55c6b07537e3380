(* One run's measurements, and how they are printed: a human-readable
   block (every metric by name, unit and sample count, plus the recorded
   inputs), then as the last line of standard output the result object
   {"correct", "attempted", "failed", "metrics"}. *)

open Perfbench

type run = {
  workload : string;
  seed : int;
  seconds : float;
  mutable clock_step_ns : float;
  mutable setups : float list;  (** Seconds, one per set-up. *)
  pace : Pace.t;  (** The windows every timed call is paced by. *)
  paces : Samples.t;  (** The pace each timed call was scaled by. *)
  reads : Samples.t;  (** Read-call latencies, paced ns ({!Pace}). *)
  commits : Samples.t;  (** Leader mutation latencies, paced ns. *)
  applies : Samples.t;  (** Ship-to-applied latencies, paced ns. *)
  leader_reads : Samples.t;  (** write_mix: the leader's share of [reads]. *)
  follower_reads : Samples.t;  (** write_mix: the follower's share. *)
  mutable busy_ns : float;  (** Sum of every timed call, paced. *)
  mutable epochs : int;
  mutable top_heap_words : int;
  tally : Oracle.tally;
  mutable inputs : (string * Json.t) list;
  mutable layers : (string * float * string * int) list;
      (** Traced runs only: name, value, unit, samples. *)
}

let create ~workload ~seed ~seconds =
  {
    workload;
    seed;
    seconds;
    clock_step_ns = 0.0;
    setups = [];
    pace = Pace.create ();
    paces = Samples.create ();
    reads = Samples.create ();
    commits = Samples.create ();
    applies = Samples.create ();
    leader_reads = Samples.create ();
    follower_reads = Samples.create ();
    busy_ns = 0.0;
    epochs = 0;
    top_heap_words = 0;
    tally = Oracle.tally ();
    inputs = [];
    layers = [];
  }

let record_input run key v = run.inputs <- run.inputs @ [ (key, v) ]

(* Times [f ()] into [samples] and the run's timed region, paced by the
   window it starts in; returns the result, the measured duration and
   the paced one (ns).  The layer replays compare measured durations. *)
let time_call run samples f =
  let pace = Pace.current run.pace in
  let r, d = Clock.time f in
  let paced = d /. pace in
  Samples.add samples paced;
  Samples.add run.paces pace;
  run.busy_ns <- run.busy_ns +. paced;
  (r, d, paced)

let note_heap run =
  run.top_heap_words <- max run.top_heap_words (Gc.quick_stat ()).Gc.top_heap_words

exception Guard of string

(* [p]-th percentile of [s] in [scale]-ns units; fails the run unless ten
   samples lie beyond it. *)
let pct s p ~scale =
  match Samples.guarded_sorted (Samples.to_sorted s) p with
  | Ok v -> v /. scale
  | Error msg -> raise (Guard msg)

type metric = { name : string; value : float; unit_ : string; samples : int }

let metric name value unit_ samples = { name; value; unit_; samples }

(* The result object's metrics.  [reads_per_s] is the reads completed
   over the timed region, the sum of every timed call's paced time: on
   write_mix that includes the commits and applies between the reads. *)
let end_to_end run =
  let n = Samples.length run.reads in
  [
    metric "setup_s" (Samples.median run.setups) "s" (List.length run.setups);
    metric "read_p50_us" (pct run.reads 50.0 ~scale:1e3) "us" n;
    metric "reads_per_s" (float_of_int n /. (run.busy_ns *. 1e-9)) "1/s" n;
    metric "peak_heap_mb"
      (float_of_int (run.top_heap_words * (Sys.word_size / 8)) /. 1048576.0)
      "MB" 1;
  ]

(* Printed with the report only: the tail, which on a shared machine
   moves too much from run to run to bound (README.md). *)
let read_tail run =
  [ metric "read_p99_us" (pct run.reads 99.0 ~scale:1e3) "us" (Samples.length run.reads) ]

(* Printed with the report: how contended the machine was while the
   timed calls ran (1.0 is the reference machine's idle pace). *)
let pace_figures run =
  let n = Samples.length run.paces in
  [
    metric "pace_p50" (pct run.paces 50.0 ~scale:1.0) "ratio" n;
    metric "pace_p90" (pct run.paces 90.0 ~scale:1.0) "ratio" n;
  ]

(* The write-side figures of write_mix: printed with the report, not in
   the result object (every workload's result carries the same metric
   set, and these exist only where there are writes). *)
let write_side run =
  if Samples.length run.commits = 0 then []
  else
    let c = Samples.length run.commits and a = Samples.length run.applies in
    let m = metric in
    [
      m "commit_p50_ms" (pct run.commits 50.0 ~scale:1e6) "ms" c;
      m "commit_p90_ms" (pct run.commits 90.0 ~scale:1e6) "ms" c;
      m "apply_p50_ms" (pct run.applies 50.0 ~scale:1e6) "ms" a;
      m "apply_p90_ms" (pct run.applies 90.0 ~scale:1e6) "ms" a;
      m "epochs_per_s" (float_of_int run.epochs /. (run.busy_ns *. 1e-9)) "1/s" run.epochs;
      m "leader_read_p50_us" (pct run.leader_reads 50.0 ~scale:1e3) "us"
        (Samples.length run.leader_reads);
      m "follower_read_p50_us" (pct run.follower_reads 50.0 ~scale:1e3) "us"
        (Samples.length run.follower_reads);
    ]

let error_rate run =
  let t = run.tally in
  if t.Oracle.attempted = 0 then 1.0
  else float_of_int (t.Oracle.failed + t.Oracle.wrong) /. float_of_int t.Oracle.attempted

let print_block run metrics =
  Printf.printf
    "== workload %s  seed %d  seconds %g  clock step %.0f ns\n"
    run.workload run.seed run.seconds run.clock_step_ns;
  Printf.printf "inputs %s\n" (Json.to_string (Json.Obj run.inputs));
  List.iter
    (fun m -> Printf.printf "  %-26s %16.4f %-6s n=%d\n" m.name m.value m.unit_ m.samples)
    metrics;
  let t = run.tally in
  Printf.printf "  %-26s %16.4f %-6s n=%d (failed %d, wrong %d)\n" "error_rate"
    (error_rate run) "ratio" t.Oracle.attempted t.Oracle.failed t.Oracle.wrong;
  List.iter (fun n -> Printf.printf "  ! %s\n" n) (List.rev t.Oracle.notes)

let correct run = run.tally.Oracle.wrong = 0 && run.tally.Oracle.attempted > 0

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, value, unit_) ->
                  (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
                metrics) );
       ])

(* The closed loop: one client calls [step i] for i = from, from + 1, ...
   until [seconds] have passed and [samples] holds at least
   [min_samples] (or, failing that, [8 * seconds], at most 120 s, have
   passed), or until [step] returns [false].  Returns the number of
   steps. *)
let loop ~seconds ~min_samples ~samples ?(from = 0) step =
  let start = Clock.now_s () in
  let cap = Float.min 120.0 (8.0 *. seconds) in
  let i = ref from and go = ref true in
  while !go do
    let el = Clock.now_s () -. start in
    if el >= seconds && (Samples.length samples >= min_samples || el >= cap) then go := false
    else if step !i then incr i
    else go := false
  done;
  !i - from

(* Runs [f] [times] times as the workload's set-up, recording each
   duration, paced by the mean of the pace just before and just after
   it; returns the last result.  Earlier results are dropped and
   collected before the next set-up starts. *)
let setups run ~times f =
  let last = ref None in
  for _ = 1 to times do
    last := None;
    Gc.full_major ();
    let before = Pace.measure () in
    let x, d = Clock.time f in
    let pace = (before +. Pace.measure ()) /. 2.0 in
    run.setups <- run.setups @ [ d /. pace *. 1e-9 ];
    last := Some x
  done;
  Option.get !last

(* Progress on standard error: seconds since start and a stage name. *)
let started = Clock.now_s ()

let stage name = Printf.eprintf "[%7.2fs] %s\n%!" (Clock.now_s () -. started) name
