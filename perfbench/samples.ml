(* Latency samples and their percentiles.

   Samples live in a growable float64 Bigarray, outside the OCaml heap,
   so collecting a million of them does not move the heap figures the
   benchmark reports. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type t = { mutable data : buf; mutable len : int }

let create () = { data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1024; len = 0 }

let add t x =
  let cap = Bigarray.Array1.dim t.data in
  if t.len = cap then begin
    let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (2 * cap) in
    Bigarray.Array1.blit t.data (Bigarray.Array1.sub b 0 cap);
    t.data <- b
  end;
  Bigarray.Array1.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Samples.get";
  Bigarray.Array1.unsafe_get t.data i

let to_sorted t =
  let a = Array.init t.len (Bigarray.Array1.unsafe_get t.data) in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample such that at least [p] percent of
   the samples are at or below it.  Returns the value and how many
   samples lie beyond it. *)
let rank n p =
  if n = 0 then invalid_arg "Samples.percentile: no samples";
  if p <= 0.0 || p > 100.0 then invalid_arg "Samples.percentile: p out of range";
  max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)))

let percentile_sorted a p =
  let n = Array.length a in
  let k = rank n p in
  (a.(k - 1), n - k)

(* A percentile is meaningful only with at least ten samples beyond it. *)
let min_beyond = 10

let guarded_sorted a p =
  let v, beyond = percentile_sorted a p in
  if beyond >= min_beyond then Ok v
  else
    Error
      (Printf.sprintf "p%g needs %d samples beyond it, has %d of %d" p
         min_beyond beyond (Array.length a))

(* How many samples a guarded [p]-th percentile needs. *)
let needed p =
  let rec go n = if n - rank n p >= min_beyond then n else go (n + 1) in
  go 1

(* Median of a small list of repeated measurements (set-up times). *)
let median = function
  | [] -> invalid_arg "Samples.median: empty"
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
