(** Noise channels over the simulation backends: bit flip, phase flip,
    depolarizing and measurement readout error, applied per-gate/per-wire
    during execution, with every random choice drawn from streams derived
    from one master seed ({!Quipper_math.Rng.derive}) — every noisy run
    replays exactly.

    Every entry point takes the backend (the Pauli kicks are Clifford
    operations, so campaigns also run on the stabilizer backend where
    the circuit's own gates permit). A configuration with all
    probabilities zero is bit-identical to the plain backend run on the
    same seed (property-tested).

    Engines: both campaigns are {!Frame.campaign}'s lane loop, and its
    rule is the one engine rule — the Pauli-frame engine runs unless the
    engine is [`Slow] or the backend observes classical bits only, and
    outcomes are the same under every engine (test_frame's engine
    invariance law). *)

open Quipper

type config = Frame.config = {
  bit_flip : float;  (** X after each gate, per touched wire *)
  phase_flip : float;  (** Z after each gate, per touched wire *)
  depolarizing : float;  (** X/Y/Z uniformly, per touched wire *)
  readout : float;  (** recorded measurement outcome flips *)
}

val none : config
val bit_flip : float -> config
val phase_flip : float -> config
val depolarizing : float -> config
val readout : float -> config
val is_noiseless : config -> bool
val pp_config : Format.formatter -> config -> unit

val run_circuit_on :
  (module Backend.S with type state = 's) ->
  ?seed:int ->
  config ->
  Circuit.b ->
  bool list ->
  's
(** Run a generated circuit noisily on basis-state inputs, on the given
    backend. Raises [Termination_assertion] if noise breaks an
    uncomputation claim — the checks of the extended circuit model keep
    firing under noise. *)

val run_and_measure_on :
  (module Backend.S) -> ?seed:int -> config -> Circuit.b -> bool list -> bool list
(** {!run_circuit_on}, then measure every output (readout noise applies
    to those final measurements too); returns outputs in arity order. *)

(** Outcome of one trial of {!run_trials_on}. *)
type trial_outcome =
  | Success of int  (** right answer after this many attempts *)
  | Wrong of int  (** completed, silently wrong — undetectable at run time *)
  | Gave_up  (** every allowed attempt ended in a detected failure *)
  | Errored of string
      (** the trial raised something other than [Termination_assertion];
          recorded and skipped so one bad trial never loses a campaign *)

type stats = {
  trials : int;
  successes : int;
  wrong : int;
  gave_up : int;
  errored : int;
  attempts : int;
  detected_failures : int;
      (** attempts aborted by [Termination_assertion]: failures the
          assertive terminations caught at run time *)
  frame_attempts : int;  (** attempts completed by the Pauli-frame engine *)
  slow_attempts : int;  (** attempts that ran the full simulation *)
  fallback_reasons : string list;
      (** distinct frame-fallback reasons, oldest first, each naming the
          offending gate/wire *)
  outcomes : trial_outcome array;
}

val pp_stats : Format.formatter -> stats -> unit

val run_trials_on :
  (module Backend.S) ->
  ?master_seed:int ->
  ?engine:Engine.t ->
  trials:int ->
  max_failures:int ->
  config ->
  Circuit.b ->
  bool list ->
  expected:bool list ->
  stats
(** Resilient trial runner on the given backend: [trials] independent
    noisy runs, per-trial seeds derived from [master_seed]. A trial
    retries (at most [max_failures] times) whenever an assertive
    termination detects the failure; completed-but-wrong answers are
    counted, not retried — quantifying exactly what detection buys.
    Deterministic for a fixed master seed, whatever the [engine]. *)

(** {2 Plain output sampling}

    For workloads that decode outcomes offline (e.g. the repetition-code
    memory experiment) rather than compare against one expected answer. *)

type sample =
  | Sampled of bool array  (** measured outputs, arity order *)
  | Assertion_tripped  (** a termination assertion aborted the trial *)
  | Sample_errored of string

type sample_summary = {
  sampled_trials : int;
  completed : int;
  assertion_tripped : int;
  sample_errored : int;
  frame_sampled : int;  (** trials completed by the Pauli-frame engine *)
  slow_sampled : int;  (** trials that ran the full simulation *)
  snapshot_sampled : int;
      (** trials drawn from one frozen pre-measurement state
          ({!Backend.S.snapshot}) — the noiseless fast path *)
  sample_reasons : string list;  (** distinct frame-fallback reasons *)
}

val sample_trials_on :
  (module Backend.S) ->
  ?master_seed:int ->
  ?engine:Engine.t ->
  trials:int ->
  config ->
  Circuit.b ->
  bool list ->
  f:(int -> sample -> unit) ->
  sample_summary
(** One noisy run per trial (no retries; trial [t]'s seed is
    [Rng.derive master_seed (t + 2)], the {!run_trials_on} schedule at
    [max_failures = 0]), delivering each trial's outputs to [f] in trial
    order.

    When the configuration is noiseless and the engine is [`Auto], the
    campaign collapses to the backend's sampling surface: one clean run
    freezes the pre-measurement state ({!Backend.S.snapshot}) and every
    trial is drawn from the frozen copy under its own derived RNG — the
    sampling law keeps each outcome bit-identical to the full
    re-simulation, at marginal cost per trial near zero (counted in
    [snapshot_sampled]). *)
