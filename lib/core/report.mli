(** Instrumented result of running one evaluation algorithm: the answer plus
    the timing breakdown and operator counts the paper's figures report. *)

type timings = {
  rewrite : float;  (** query reformulation / partitioning seconds *)
  plan : float;  (** MQO global-plan generation (e-MQO only) *)
  evaluate : float;  (** source-operator execution seconds *)
  aggregate : float;  (** answer-aggregation seconds *)
}

val zero_timings : timings

(** Wall-clock total. *)
val total : timings -> float

type t = {
  answer : Answer.t;
  timings : timings;
  source_operators : int;  (** operator executions on the source instance *)
  rows_produced : int;
  groups : int;
      (** distinct source queries / representative mappings / e-units,
          depending on the algorithm *)
  engine : string;
      (** the execution engine the run {e actually} used (an
          {!Urm_relalg.Compile.engine_name}, possibly suffixed
          ["+factorized"]), which may differ from the engine the context
          requested when an algorithm falls back to its interpreted oracle
          path; [""] when unrecorded.  [urm query] warns on mismatch. *)
}

(** [make ~answer … ()] assembles a report. *)
val make :
  ?engine:string ->
  answer:Answer.t ->
  timings:timings ->
  source_operators:int ->
  rows_produced:int ->
  groups:int ->
  unit ->
  t

(** [record_metrics m r] records one completed run into the metrics scope
    [m]: the ["runs"] and ["groups"] counters plus one ["phase.*"] timer
    observation per phase of [r.timings]. *)
val record_metrics : Urm_obs.Metrics.t -> t -> unit

(** [to_json ?volatile r] the report as JSON.  [volatile:false] (default
    [true]) keeps only the schedule-independent fields — the answer and the
    group count — dropping timings and operator/row counters, which differ
    across equivalent runs; byte-identity checks compare that rendering. *)
val to_json : ?volatile:bool -> t -> Urm_util.Json.t

(** [value_to_json v] a tuple cell as JSON, as every rendered answer and
    interval tuple has it. *)
val value_to_json : Urm_relalg.Value.t -> Urm_util.Json.t

val pp : Format.formatter -> t -> unit
