(** Bounded FIFO memo table for requester decisions.

    The paper's requester (Section 4) recomputes each all-or-nothing
    decision from the materialized signs on every call; under the
    read-heavy workloads the roadmap targets, the same XPath queries
    arrive over and over between document updates.  This cache makes
    the repeat case O(1): decisions are stored under a string key
    (lane + store + subject + query text).

    Every cache belongs to one immutable {!Snapshot.t}, so an entry can
    never go stale: a new epoch publishes a new snapshot with a new
    cache.  Capacity is bounded; when full, entries are evicted in
    insertion order.  The cache stores values of any type — the
    snapshot instantiates it at its memo record. *)

type 'a t

val default_capacity : int
(** 256. *)

val create : ?capacity:int -> unit -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val find : 'a t -> string -> 'a option

val add : 'a t -> string -> 'a -> unit
(** Inserts (or overwrites) the entry, evicting the oldest one when
    the table is at capacity. *)

val length : 'a t -> int
val capacity : 'a t -> int

val evictions : 'a t -> int
(** Lifetime count of entries evicted for capacity. *)

val iter : (string -> 'a -> unit) -> 'a t -> unit
(** Visits every entry (unspecified order) — the snapshot layer's
    carry-forward walk, which re-adds entries that survive an epoch's
    change set into the next snapshot's cache. *)
