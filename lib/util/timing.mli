(** Wall-clock measurement helpers for the benchmark harness.

    Every timing figure the repository reports — the Section 7
    reproductions in [bench/] (loading, response, annotation and
    re-annotation times of Figures 9-12), the [explain] stage trace,
    and the {!Metrics} stage timers — goes through [now]/[time] here,
    so the clock source and its resolution are decided in one place. *)

val now : unit -> float
(** Monotonic clock time in seconds, read at nanosecond resolution
    ([bechamel.monotonic_clock]).  Only differences are meaningful.
    Elapsed wall time, so spans measured on concurrent OCaml domains
    are not inflated by other domains' work. *)

val percentile : float array -> p:float -> float
(** [percentile samples ~p] is the nearest-rank [p]-th percentile
    (0 <= [p] <= 100) of [samples], which is left unmodified.
    Raises [Invalid_argument] on an empty array. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result with the elapsed wall
    time in seconds. *)

val pp_seconds : Format.formatter -> float -> unit
(** Human-friendly duration: ns/us/ms/s with 3 significant digits. *)
