(* The xmlac benchmark.

     xmlac_bench --workload NAME --seed N --seconds S --trace 0|1

   NAME is read_hot, read_cold, read_unannotated or write_mix.  Prints a
   report block, then as its last line one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1.
   Exit codes: 0 on a correct run, 1 on a wrong decision, 2 when a
   percentile lacks samples or the clock is too coarse, 3 on bad
   arguments.  See README.md for the definitions. *)

open Perfbench

let workloads =
  [
    ("read_hot", Reads.hot);
    ("read_cold", Reads.cold);
    ("read_unannotated", Reads.unannotated);
    ("write_mix", Writes.run);
  ]

(* The fastest call timed is a decision-cache hit, about 4 us. *)
let fastest_ns = 4000.0

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "xmlac_bench --workload NAME --seed N --seconds S --trace 0|1" in
  let args =
    [
      ("--workload", Arg.Set_string workload, "NAME read_hot | read_cold | read_unannotated | write_mix");
      ("--seed", Arg.Set_int seed, "N seed of every generated input");
      ("--seconds", Arg.Set_int seconds, "S length of the measured region");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let bad msg =
    prerr_endline ("xmlac_bench: " ^ msg);
    prerr_endline usage;
    exit 3
  in
  (try Arg.parse_argv Sys.argv args (fun a -> bad ("unexpected argument " ^ a)) usage
   with Arg.Bad msg | Arg.Help msg -> bad msg);
  let f =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None -> bad (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then bad "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let guard_failed msg =
    prerr_endline ("xmlac_bench: " ^ !workload ^ ": " ^ msg);
    exit 2
  in
  let step = match Clock.check ~fastest_ns with Ok s -> s | Error msg -> guard_failed msg in
  let run = Report.create ~workload:!workload ~seed:!seed ~seconds:(float_of_int !seconds) in
  run.Report.clock_step_ns <- step;
  Report.record_input run "seed" (Json.Int !seed);
  (try f run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace
   with Report.Guard msg -> guard_failed msg);
  (* The result object carries the benchmark's declared metrics: every
     end-to-end one, or every per-layer one; the report prints those and
     a few more. *)
  let declared, metrics =
    try
      if trace then
        let layers =
          List.map
            (fun (name, value, unit_, samples) -> { Report.name; value; unit_; samples })
            run.Report.layers
        in
        (layers, layers)
      else
        let e2e = Report.end_to_end run in
        (e2e, e2e @ Report.read_tail run @ Report.write_side run @ Report.pace_figures run)
    with Report.Guard msg -> guard_failed msg
  in
  Report.print_block run metrics;
  let t = run.Report.tally in
  let correct = Report.correct run in
  print_endline
    (Report.result_line ~correct ~attempted:t.Oracle.attempted
       ~failed:(t.Oracle.failed + t.Oracle.wrong)
       (List.map (fun m -> (m.Report.name, m.Report.value, m.Report.unit_)) declared));
  if not correct then exit 1
