(* Compact, comparable digests of requester decisions, so the timed loop
   only stores a small value per reply and every comparison against a
   workload's oracle happens after the timed calls. *)

open Xmlac_core

type digest = { granted : bool; count : int; hash : int }
(** [count] is the number of granted ids, or the blocked count of a
    denial; [hash] folds the granted ids in order. *)

let digest = function
  | Requester.Granted ids ->
      let hash =
        List.fold_left (fun h id -> ((h * 1_000_003) + id) land max_int) 17 ids
      in
      { granted = true; count = List.length ids; hash }
  | Requester.Denied { blocked } -> { granted = false; count = blocked; hash = 0 }

let equal (a : digest) b = a = b

let pp d =
  if d.granted then Printf.sprintf "granted %d nodes (#%x)" d.count d.hash
  else Printf.sprintf "denied (%d blocked)" d.count

(* Tally of a workload's operations: attempted, failed (typed error,
   degraded or unpinned reply, stale denial) and wrong (disagrees with
   the oracle).  [notes] keeps the first few problems for the report. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;
  mutable notes : string list;
}

let tally () = { attempted = 0; failed = 0; wrong = 0; notes = [] }

let note t msg = if List.length t.notes < 8 then t.notes <- msg :: t.notes

let fail t msg =
  t.failed <- t.failed + 1;
  note t ("failed: " ^ msg)

let wrong t msg =
  t.wrong <- t.wrong + 1;
  note t ("wrong: " ^ msg)

let check t ~what ~expected got =
  if not (equal expected got) then
    wrong t (Printf.sprintf "%s: expected %s, got %s" what (pp expected) (pp got))
