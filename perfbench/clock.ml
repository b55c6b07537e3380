(* The benchmark's only clock: the kernel's monotonic clock read in
   nanoseconds through bechamel's stub.  Neither [Sys.time] (processor
   time) nor [Unix.gettimeofday] (microsecond steps) is used. *)

let now_ns () = Monotonic_clock.now ()

let now_s () = Int64.to_float (now_ns ()) *. 1e-9

let elapsed_ns t0 = Int64.to_float (Int64.sub (now_ns ()) t0)

(* [f ()] and how long it took, in nanoseconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, elapsed_ns t0)

(* Smallest positive difference between two consecutive readings: the
   clock's effective step, read overhead included. *)
let step_ns () =
  let best = ref Int64.max_int in
  let prev = ref (now_ns ()) in
  for _ = 1 to 20_000 do
    let t = now_ns () in
    let d = Int64.sub t !prev in
    if Int64.compare d 0L > 0 && Int64.compare d !best < 0 then best := d;
    prev := t
  done;
  Int64.to_float !best

(* The step must be well below the fastest operation the benchmark
   times: at most a tenth of it. *)
let check ~fastest_ns =
  let step = step_ns () in
  if step <= fastest_ns /. 10.0 then Ok step
  else
    Error
      (Printf.sprintf
         "clock step %.0f ns is not well below the fastest timed operation \
          (%.0f ns)"
         step fastest_ns)
