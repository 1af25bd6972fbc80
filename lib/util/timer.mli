(** Wall-clock timing helpers for the experiment harness. *)

(** Current wall-clock time in seconds (the clock every helper below uses). *)
val now : unit -> float

(** [time f] runs [f ()] and returns its result with the elapsed seconds. *)
val time : (unit -> 'a) -> 'a * float

(** [repeat ~warmup ~runs f] runs [f] [warmup] times unmeasured, then [runs]
    times measured, returning the mean elapsed seconds per run. *)
val repeat : warmup:int -> runs:int -> (unit -> 'a) -> float

(** A resumable stopwatch used to attribute time to phases (e.g. the paper's
    evaluation-vs-aggregation breakdown in Fig. 10(a)). *)
module Stopwatch : sig
  type t

  val create : unit -> t
  val start : t -> unit
  val stop : t -> unit

  (** Accumulated running time in seconds. *)
  val elapsed : t -> float

  val reset : t -> unit

  (** [timed t f] runs [f ()] with [t] running, stopping it even if [f]
      raises. *)
  val timed : t -> (unit -> 'a) -> 'a
end
