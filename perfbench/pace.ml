(* The machine's pace, for timing on a shared machine.

   The machines this runs on are shared.  Other tenants contend for the
   cores, in bursts of milliseconds and in stretches of minutes, and
   while they do every call runs slower: a cold read up to about 1.5
   times, a tight arithmetic loop twice.  Wall-clock medians move with
   them.  Over five rounds of the four workloads (Intel Xeon, 2 vCPUs)
   the quartile spread of the wall-clock read median was 0.20-0.32 of
   its median; selecting only the reads made in quiet windows failed
   whenever a run had no quiet window, and one set of ten read_cold runs
   spread 0.39.

   So every timed call is scaled by the pace of the window it was made
   in.  Between timed calls, at most once a millisecond, three fixed
   kernels run: arithmetic over an array in L1, a walk over a tree of
   string-tagged records, and string-keyed hash-table lookups, the kinds
   of work the read path does.  Each is timed as the faster of two runs,
   the second with its data (under 300 KB) back in cache, and divided by
   its time on an idle core of that machine; the pace is the mean of the
   three ratios, 1.0 on the idle reference machine.  A call's paced time is its measured time divided by the pace: what it
   would have taken at the reference pace.  Over two sets of ten seeds
   per workload, the spread of the paced read median was 0.01-0.09.

   The kernels use only the standard library and allocate nothing, so
   the pace depends on the machine only, never on the program measured:
   a slower program still reads slower. *)

let alu_data = Array.init 1024 Fun.id

let alu () =
  let s = ref 0 in
  for r = 1 to 6 do
    for i = 0 to Array.length alu_data - 1 do
      s := !s + ((alu_data.(i) * r) land 0xff)
    done
  done;
  !s

type node = { tag : string; kids : node array }

let tags = [| "site"; "people"; "person"; "name"; "item"; "bidder"; "annotation"; "category" |]

(* A complete tree of fan-out 3 and depth 5: 364 records. *)
let tree =
  let next = ref 0 in
  let rec build depth =
    let tag = tags.(!next mod Array.length tags) in
    incr next;
    { tag; kids = (if depth = 0 then [||] else Array.init 3 (fun _ -> build (depth - 1))) }
  in
  build 5

let rec count n =
  let c = ref (if String.equal n.tag "item" then 1 else 0) in
  for i = 0 to Array.length n.kids - 1 do
    c := !c + count n.kids.(i)
  done;
  !c

let walk () = count tree

let key i = Printf.sprintf "key/%d/path" (i * 7919)

let table =
  let h = Hashtbl.create 8192 in
  for i = 0 to 4095 do
    Hashtbl.replace h (key i) i
  done;
  h

let keys = Array.init 256 (fun i -> key (i * 16))

let lookups () =
  let s = ref 0 in
  for i = 0 to Array.length keys - 1 do
    s := !s + Hashtbl.find table keys.(i)
  done;
  !s

(* Each kernel and its time, ns, on an idle core of the reference
   machine. *)
let kernels = [ (alu, 7500.0); (walk, 1800.0); (lookups, 11000.0) ]

let ratio (kernel, idle_ns) =
  let best = ref infinity in
  for _ = 1 to 2 do
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (kernel ()));
    best := Float.min !best (Clock.elapsed_ns t0)
  done;
  !best /. idle_ns

(* The pace now: 1.0 at the reference machine's idle pace, 2.0 when the
   kernels take twice as long. *)
let measure () =
  List.fold_left (fun acc k -> acc +. ratio k) 0.0 kernels /. float_of_int (List.length kernels)

type t = { mutable next_ns : int64; mutable pace : float }

let create () = { next_ns = 0L; pace = 1.0 }

(* The pace of the current window; a new window opens, with a new
   measurement, once a millisecond has passed. *)
let current t =
  if Int64.compare (Clock.now_ns ()) t.next_ns >= 0 then begin
    t.pace <- measure ();
    t.next_ns <- Int64.add (Clock.now_ns ()) 1_000_000L
  end;
  t.pace
