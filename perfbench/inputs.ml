(* Everything a workload feeds the system, generated from the run's seed
   during set-up: the document, the policy, subjects, query streams and
   mutations.  The documents are the fixed XMark instances of the
   paper's dataset at the workload's scale factor (the generator's
   default seed); the run seed draws everything that is sent to them. *)

module Tree = Xmlac_xml.Tree
module Dtd = Xmlac_xml.Dtd
module Sg = Xmlac_xml.Schema_graph
module Prng = Xmlac_util.Prng
module Pp = Xmlac_xpath.Pp
module Xmark = Xmlac_workload.Xmark
module Queries = Xmlac_workload.Queries
open Xmlac_core

let document factor = Xmark.generate ~factor ()

(* The eight role-qualified scopes of exp_multirole's pool. *)
let scope_pool =
  [
    "//person";
    "//person/name";
    "//open_auction";
    "//closed_auction";
    "//item";
    "//bidder";
    "//person[creditcard]";
    "//annotation";
  ]

let roles = List.init (List.length scope_pool) (Printf.sprintf "r%d")

(* The anonymous subject (single-subject signs) plus every role. *)
let subjects = None :: List.map Option.some roles

let subject_label = function None -> "anonymous" | Some r -> r

(* The 50%-coverage policy measured on [doc], plus one Plus rule per
   role over the scope pool. *)
let policy doc =
  let base = Xmlac_workload.Coverage.policy_for_target ~doc ~target:0.5 in
  let decls = Subject.make_exn (List.map (fun r -> Subject.role r) roles) in
  let qualified =
    List.mapi
      (fun i scope ->
        Rule.parse ~name:(Printf.sprintf "q%d" i) ~subjects:[ List.nth roles i ]
          scope Rule.Plus)
      scope_pool
  in
  Policy.make ~subjects:decls ~ds:(Policy.ds base) ~cr:(Policy.cr base)
    (Policy.rules base @ qualified)

(* Independent sub-seeds of the run seed, one per purpose, so adding a
   draw to one stream never shifts another.  Seeds are mixed through the
   generator's own output function: splitmix64 streams whose seeds
   differ by its increment would otherwise be shifted copies. *)
let mix x = Prng.next_int64 (Prng.create ~seed:x)

let sub_seed seed tag = mix (Int64.logxor (mix (Int64.of_int seed)) (Int64.of_int tag))

let rng seed tag = Prng.create ~seed:(sub_seed seed tag)

let hot_queries () = List.map Pp.expr_to_string (Queries.response_queries ())

(* [n] distinct query texts from the response-query generator, none of
   them in [exclude], in seeded random order.  The pool is drawn whole
   and then shuffled so that the stream is stationary: deduplicating a
   stream as it goes would leave only the rarer, costlier queries for
   the end of a long run, and a faster machine would reach them. *)
let query_pool ~seed ~tag ~n ~exclude =
  let seen = Hashtbl.create (2 * n) in
  List.iter (fun q -> Hashtbl.replace seen q ()) exclude;
  let out = ref [] and count = ref 0 and chunk = ref 0 and dry = ref 0 in
  while !count < n do
    let before = !count in
    Queries.response_queries ~n:256 ~seed:(sub_seed seed ((tag * 1_000_003) + !chunk)) ()
    |> List.iter (fun e ->
           let q = Pp.expr_to_string e in
           if !count < n && not (Hashtbl.mem seen q) then begin
             Hashtbl.replace seen q ();
             out := q :: !out;
             incr count
           end);
    incr chunk;
    if !count = before then incr dry else dry := 0;
    if !dry > 64 then failwith "query_pool: the generator produces no new queries"
  done;
  let pool = Array.of_list !out in
  Prng.shuffle (rng seed (tag + 100)) pool;
  pool

(* ---------- mutations (write_mix) ---------- *)

type mutation =
  | Delete of string
  | Insert of { at : string; fragment : Tree.t }

let mutation_label = function
  | Delete q -> "delete " ^ q
  | Insert { at; fragment } ->
      Printf.sprintf "insert %s (%d nodes) under %s"
        (Tree.root fragment).Tree.name (Tree.size fragment) at

(* Subtree types grafted by inserts; each goes under its DTD parent. *)
let insert_types = [ "person"; "open_auction"; "closed_auction"; "item"; "category" ]

let sg = lazy (Sg.build Xmark.dtd)

(* The XMark DTD re-rooted at [ty]: generating from it gives a valid
   subtree of that type. *)
let subtree_dtd =
  let decls =
    lazy
      (List.map (fun n -> (n, Dtd.content Xmark.dtd n)) (Dtd.element_types Xmark.dtd))
  in
  fun ty -> Dtd.make ~root:ty (Lazy.force decls)

let gen_subtree rng =
  let ty = Prng.choose_list rng insert_types in
  let path = Prng.choose_list rng (Sg.paths_to (Lazy.force sg) ty) in
  let parent = List.filteri (fun i _ -> i < List.length path - 1) path in
  let at = "/" ^ String.concat "/" parent in
  (at, Xmlac_workload.Docgen.generate ~rng (subtree_dtd ty))

(* Of eight seeded subtrees, the one whose size is closest to [want]. *)
let gen_insert rng ~want =
  let score (_, f) = abs (Tree.size f - want) in
  let at, fragment =
    List.fold_left
      (fun best c -> if score c < score best then c else best)
      (gen_subtree rng)
      (List.init 7 (fun _ -> gen_subtree rng))
  in
  Insert { at; fragment }

(* Nodes a delete update would remove from [doc]. *)
let removed doc q =
  let gone = Hashtbl.create 64 in
  List.iter
    (fun n -> List.iter (fun d -> Hashtbl.replace gone d.Tree.id ()) (Tree.descendant_or_self n))
    (Xmlac_xpath.Eval.eval doc (Xmlac_xpath.Parser.parse_exn q));
  Hashtbl.length gone

(* Deletes remove at most this many nodes of the starting document; each
   insert refills about what the document has lost since the start.
   Together they keep the document near its starting size, so a run's
   cost does not drift with the seed. *)
let max_delete = 30

(* Write cycle [i]'s mutation on a cluster that started from [doc], whose
   document now has [size] nodes.  Deletes (the first 64
   [Queries.delete_updates] that remove at most [max_delete] nodes of
   [doc]) and inserts alternate. *)
let mutation_stream ~seed doc =
  let n0 = Tree.size doc in
  let deletes =
    Queries.delete_updates ~n:512 ~seed:(sub_seed seed 7) ()
    |> List.map Pp.expr_to_string
    |> List.filter (fun q -> removed doc q <= max_delete)
    |> List.filteri (fun i _ -> i < 64)
    |> Array.of_list
  in
  let r = rng seed 8 in
  fun i ~size ->
    if i mod 2 = 0 then Delete (Prng.choose r deletes) else gen_insert r ~want:(max 1 (n0 - size))

(* One read: a query, the store it goes to, and who asks. *)
type read = { query : string; backend : Engine.backend_kind; subject : string option }

let shipped_op = function
  | Delete q -> Engine.Ship_update q
  | Insert { at; fragment } -> Engine.Ship_insert { at; fragment }
