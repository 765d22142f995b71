(** Pauli-frame fault propagation: the fast engine behind million-trial
    noise campaigns and exhaustive fault-injection sweeps.

    One noiseless reference run (on the {!Clifford} backend) plus, per
    trial, a {e Pauli frame} — an (x, z) bitpair per live qubit wire —
    pushed through the gate stream by conjugation
    ({!Quipper.Gate.frame_action}). Frames pack {!lanes_per_word} trials
    per machine word; fault sampling is scalar per lane so it replays
    the slow path's RNG draw sequence exactly, making outcomes
    bit-identical to {!Noise}/{!Inject} at equal derived seeds.

    Eligibility (otherwise the pass, or just the affected lanes,
    report fallback with the offending gate and wire named):
    - every gate the reference applies is in the clifford backend's set;
    - every measurement, discard and quantum termination is
      deterministic in the reference run (Pauli faults preserve
      determinism, so this extends to every lane);
    - classically-controlled gates whose control diverges under noise
      are only absorbed when the controlled gate is a pure Pauli
      (the error-correction case); anything else falls back lane-wise.

    The fault campaigns ({!Noise.run_trials_on}, {!Noise.sample_trials_on},
    {!Inject.report_on}) are one lane loop, {!campaign}, given a pass, a
    slow attempt and a classifier each. *)

open Quipper

val lanes_per_word : int
(** Trials advanced per word operation: [Sys.int_size] (63 on 64-bit;
    native ints keep the frame arrays unboxed). *)

(** The noise channels, per gate and per wire, re-exported as
    {!Noise.config} (documented there). *)
type config = {
  bit_flip : float;
  phase_flip : float;
  depolarizing : float;
  readout : float;
}

(** A lane's result: [Done] with its value, [Detected] (a termination
    assertion fired) or [Errored] (anything else raised; slow attempts
    only). *)
type 'a verdict = Done of 'a | Detected | Errored of string

(** A propagation pass over a chunk of lanes. *)
type 'a verdicts = {
  verdict : int -> 'a verdict option;
      (** lane [l]'s verdict, [None] when it must re-run on the slow path *)
  ineligible : bool;  (** the circuit is out of reach: run every later lane slow *)
  reasons : string list;  (** every distinct fallback reason, oldest first *)
}

(** {1 Noise passes: many trials, sampled faults} *)

val noise_pass :
  config -> Circuit.t -> bool list -> lanes:int -> seed:(int -> int) -> bool array verdicts
(** One propagation pass over an inlined circuit: lane [l] is a trial
    whose noise stream derives from [seed l] exactly as
    {!Noise.run_circuit_on} does (child stream [Rng.derive seed 1]), so a
    completed lane's output bits (arity order) equal what the slow path
    at that seed measures, bit for bit, on any backend. *)

(** {1 Inject passes: one deterministic Pauli fault per lane} *)

type fault = { findex : int; fwire : Wire.t; fx : bool; fz : bool }
(** A fixed Pauli (x/z components; both = Y) striking wire [fwire] right
    after flat gate [findex] ([-1] = before the first gate), as
    {!Quipper.Faultsite.site} positions faults. *)

(** How the campaign's backend compares final states, which decides what
    a {e masked} fault is: [Tableau] (clifford backend) compares
    canonical stabilizer groups over all allocated columns, so residual
    fault components on measured/discarded columns count; [Amplitudes]
    (statevector) compares live-wire amplitude vectors up to global
    phase, so they do not. *)
type semantics = Tableau | Amplitudes

val inject_pass :
  semantics -> Circuit.t -> bool list -> lanes:int -> fault:(int -> fault) -> bool verdicts
(** Classify [lanes] faults in one propagation pass: lane [l] carries
    exactly [fault l] (ascending [findex] in lane order — as
    {!Quipper.Faultsite.enumerate} lists sites). Detection mirrors the
    slow path's [Termination_assertion]; a completed lane is [Done true]
    when masked: its residual frame commutes with every stabilizer
    generator of the clean final state and flips no classical output
    bit. *)

(** {1 Campaigns} *)

val contain : (unit -> 'a) -> 'a verdict
(** Run one slow attempt: [Termination_assertion] is [Detected], any
    other exception [Errored] with its text, so one bad attempt never
    loses a campaign. *)

type tally = {
  frame : int;  (** lane attempts the frame engine settled *)
  slow : int;  (** lane attempts run on the slow path *)
  detected : int;  (** attempts a termination assertion caught, either engine *)
  fallback_reasons : string list;  (** distinct fallback reasons, oldest first *)
}

val campaign :
  (module Backend.S) ->
  Engine.t ->
  lanes:int ->
  rounds:int ->
  frame:(semantics -> round:int -> lanes:int -> lane:(int -> int) -> 'a verdicts) ->
  slow:(lane:int -> round:int -> 'a verdict) ->
  finish:(lane:int -> round:int -> 'a verdict -> unit) ->
  tally
(** The one lane loop of every fault campaign. Round 0 runs lanes
    [0 .. lanes - 1]; a [Detected] lane runs again in the next round
    while fewer than [rounds] have run, and every other verdict goes to
    [finish] (in lane order within a round), as does the last round's
    [Detected]. A round runs [frame] on
    chunks of at most [lanes_per_word * 1024] lanes (chunk index [i] is
    lane [lane i]) and [slow] on each lane a chunk falls back, and on
    every lane once a pass reports the circuit ineligible.

    The engine rule: [frame] runs unless the engine is [`Slow] or the
    backend observes classical bits only ({!Backend.Obs_bits}); a
    refused [`Frame] notes why. The backend's observation picks the
    masked-fault {!semantics}. Verdicts do not depend on the engine. *)
