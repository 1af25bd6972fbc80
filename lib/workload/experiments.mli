(** The experiment harness: one runner per table/figure of the paper's
    evaluation (§VIII) plus the ablations listed in DESIGN.md.  Each runner
    produces a printable {!Table.t}; `bench/main.exe` executes them all and
    EXPERIMENTS.md records measured-vs-paper shapes. *)

module Table : sig
  type t = {
    id : string;  (** e.g. ["fig11a"] *)
    title : string;
    headers : string list;
    rows : string list list;
    notes : string list;
  }

  val pp : Format.formatter -> t -> unit
end

type config = {
  seed : int;
  scale : float;  (** source-instance scale of the default setup *)
  h : int;  (** default number of possible mappings *)
  h_sweep : int list;  (** mapping-count axis (Figs. 9(a), 10(c), 11(c)) *)
  scale_sweep : float list;
      (** database-size axis, as multipliers of [scale] (Figs. 10(b), 11(b)) *)
  k_sweep : int list;  (** top-k axis (Fig. 12) *)
  runs : int;  (** timing repetitions per data point *)
  engine : Urm_relalg.Compile.engine;
      (** query-execution engine for the contexts built by the experiments
          (default vectorized; see {!Urm_relalg.Compile}) *)
}

(** seed 42, scale 0.03, h = 100, h_sweep 100..500, scale 0.2×..1×,
    k ∈ {1,5,10,15,20}, runs 1. *)
val default : config

(** A miniature configuration for tests (scale 0.01, h = 20, short sweeps). *)
val quick : config

(** All experiments in DESIGN.md order:
    fig9a fig10a fig10b fig10c fig11a fig11b fig11c fig11d fig11e fig11f
    tab4 fig12a fig12b fig12c abl-memo abl-index abl-stats abl-ptree. *)
val all : (string * (config -> Table.t)) list

(** [run_by_id cfg id] raises [Not_found] for unknown ids. *)
val run_by_id : config -> string -> Table.t
