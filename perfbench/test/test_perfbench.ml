(* Unit tests of the benchmark's support library: the percentile and its
   sample guard, the JSON printer, the machine pace and the clock check. *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let samples xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  s

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let sorted = Samples.to_sorted (samples (List.rev (range 100))) in
  check "sorted" (sorted = Array.of_list (range 100));
  check "p50 of 1..100" (Samples.percentile_sorted sorted 50.0 = (50.0, 50));
  check "p99 of 1..100" (Samples.percentile_sorted sorted 99.0 = (99.0, 1));
  check "p100 of 1..100" (Samples.percentile_sorted sorted 100.0 = (100.0, 0));
  check "p90 of 1..10" (Samples.percentile_sorted (Array.of_list (range 10)) 90.0 = (9.0, 1));
  check "single sample" (Samples.percentile_sorted [| 7.0 |] 50.0 = (7.0, 0));
  check "p0 rejected"
    (match Samples.percentile_sorted sorted 0.0 with _ -> false | exception Invalid_argument _ -> true);
  check "empty rejected"
    (match Samples.percentile_sorted [||] 50.0 with _ -> false | exception Invalid_argument _ -> true);
  let s = samples (range 5000) in
  check "growth keeps every sample" (Samples.length s = 5000 && Samples.to_sorted s = Array.of_list (range 5000));
  check "get out of range"
    (match Samples.get s 5000 with _ -> false | exception Invalid_argument _ -> true);
  check "median odd" (Samples.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (Samples.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5)

let test_guard () =
  let ok n p = Result.is_ok (Samples.guarded_sorted (Array.of_list (range n)) p) in
  check "p99 needs 1000" (ok 1000 99.0 && not (ok 999 99.0));
  check "p90 needs 100" (ok 100 90.0 && not (ok 99 90.0));
  check "p50 needs 20" (ok 20 50.0 && not (ok 19 50.0));
  check "needed p99" (Samples.needed 99.0 = 1000);
  check "needed p90" (Samples.needed 90.0 = 100);
  check "needed p50" (Samples.needed 50.0 = 20);
  check "guard value" (Samples.guarded_sorted (Array.of_list (range 1000)) 99.0 = Ok 990.0)

let test_json () =
  let j = Json.to_string in
  check "scalars" (j (Json.List [ Json.Null; Json.Bool true; Json.Int (-3) ]) = "[null, true, -3]");
  check "object"
    (j (Json.Obj [ ("a", Json.Int 1); ("b", Json.List []) ]) = "{\"a\": 1, \"b\": []}");
  check "escapes" (j (Json.String "q\"\\\n\t\x01") = "\"q\\\"\\\\\\n\\t\\u0001\"");
  check "short float" (j (Json.Float 1.2034) = "1.2034");
  check "integral float" (j (Json.Float 3.0) = "3");
  check "all digits kept" (float_of_string (j (Json.Float (1.0 /. 3.0))) = 1.0 /. 3.0);
  check "tiny float" (float_of_string (j (Json.Float 1.5e-7)) = 1.5e-7);
  check "nan rejected"
    (match j (Json.Float Float.nan) with _ -> false | exception Invalid_argument _ -> true)

let test_pace () =
  let p = Pace.measure () in
  check "pace positive and finite" (p > 0.0 && Float.is_finite p)

let test_clock () =
  let step = Clock.step_ns () in
  check "clock step positive and finite" (step > 0.0 && Float.is_finite step);
  check "coarse clock rejected" (Result.is_error (Clock.check ~fastest_ns:1.0))

let () =
  test_percentile ();
  test_guard ();
  test_json ();
  test_pace ();
  test_clock ();
  if !failures > 0 then exit 1;
  print_endline "perfbench: all checks passed"
