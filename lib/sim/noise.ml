(** Noise channels over the simulation backends.

    The clean simulators check the extended circuit model's promises
    (assertive termination, §4.2.2) only on clean runs. This module
    deliberately breaks that idyll: configurable per-gate/per-wire noise
    channels — bit flip, phase flip, depolarizing, measurement readout
    error — applied during execution, every random choice drawn from a
    {!Quipper_math.Rng} stream derived from one master seed so that every
    noisy run replays exactly.

    Channel semantics, applied after each gate to every qubit wire the
    gate touched that is still live (see {!Quipper.Faultsite.exposed_wires}):
    - [bit_flip p]: X with probability p;
    - [phase_flip p]: Z with probability p;
    - [depolarizing p]: with probability p, one of X/Y/Z uniformly;
    - [readout p]: each measurement's recorded outcome flips with
      probability p (the collapse itself is faithful — only the classical
      record lies, as real readout errors do).

    Noisy execution is generic over a {!Backend.S}: the Pauli kicks are
    Clifford operations, so campaigns run on the stabilizer backend too
    where the circuit's own gates permit. The historical entry points
    ([run_circuit], [run_and_measure], [run_trials]) remain, fixed to the
    statevector backend, and behave bit-identically to before.

    Seed discipline: the backend's own measurement stream uses the given
    seed unchanged, so a configuration with all probabilities zero is
    {e bit-identical} to the plain backend run; noise decisions draw from
    the derived child stream [Rng.derive seed 1]. *)

open Quipper
module Sv = Statevector
module Rng = Quipper_math.Rng

type config = {
  bit_flip : float;
  phase_flip : float;
  depolarizing : float;
  readout : float;
}

let none = { bit_flip = 0.0; phase_flip = 0.0; depolarizing = 0.0; readout = 0.0 }
let bit_flip p = { none with bit_flip = p }
let phase_flip p = { none with phase_flip = p }
let depolarizing p = { none with depolarizing = p }
let readout p = { none with readout = p }

let is_noiseless c =
  c.bit_flip = 0.0 && c.phase_flip = 0.0 && c.depolarizing = 0.0 && c.readout = 0.0

let pp_config ppf c =
  Fmt.pf ppf "{bit_flip=%g; phase_flip=%g; depolarizing=%g; readout=%g}" c.bit_flip
    c.phase_flip c.depolarizing c.readout

(* ------------------------------------------------------------------ *)
(* Noisy execution, generic over the backend                           *)

let pauli (type s) (module B : Backend.S with type state = s) (st : s) name w =
  B.apply_gate st
    (Gate.Gate { name; inv = false; targets = [ w ]; controls = [] })

(* One noise "kick" on wire [w]: each enabled channel fires
   independently. Zero-probability channels draw nothing, keeping the
   stream (and hence any enabled channel's decisions) independent of
   which other channels are configured off. *)
let kick (type s) (module B : Backend.S with type state = s) rng cfg (st : s) w =
  if cfg.bit_flip > 0.0 && Rng.float rng < cfg.bit_flip then pauli (module B) st "X" w;
  if cfg.phase_flip > 0.0 && Rng.float rng < cfg.phase_flip then pauli (module B) st "Z" w;
  if cfg.depolarizing > 0.0 && Rng.float rng < cfg.depolarizing then
    pauli (module B) st (match Rng.int rng 3 with 0 -> "X" | 1 -> "Y" | _ -> "Z") w

let flip_readout (type s) (module B : Backend.S with type state = s) rng cfg (st : s) w =
  if cfg.readout > 0.0 && Rng.float rng < cfg.readout then
    B.set_bit st w (not (B.read_bit st w))

let step (type s) (module B : Backend.S with type state = s) rng cfg (st : s)
    (g : Gate.t) =
  match g with
  | Gate.Measure { wire } ->
      B.apply_gate st g;
      flip_readout (module B) rng cfg st wire
  | g ->
      B.apply_gate st g;
      List.iter (kick (module B) rng cfg st) (Faultsite.exposed_wires g)

(** Run the inlined [flat] circuit noisily; returns the state and the
    noise stream (still needed for readout errors on final measurements). *)
let exec_on (type s) (module B : Backend.S with type state = s) ~seed cfg
    (flat : Circuit.t) (inputs : bool list) : s * Rng.t =
  let st = B.create ~seed () in
  let rng = Rng.create (Rng.derive seed 1) in
  Drive.load B.name (B.apply_gate st) flat.Circuit.inputs inputs;
  Array.iter (step (module B) rng cfg st) flat.Circuit.gates;
  (st, rng)

let run_circuit_on (type s) (module B : Backend.S with type state = s) ?(seed = 1)
    cfg (b : Circuit.b) (inputs : bool list) : s =
  fst (exec_on (module B) ~seed cfg (Circuit.inline b) inputs)

let measure_outputs (type s) (module B : Backend.S with type state = s) rng cfg
    (st : s) (flat : Circuit.t) : bool list =
  Drive.readout
    ~measure:(fun w ->
      let v = B.measure st w in
      if cfg.readout > 0.0 && Rng.float rng < cfg.readout then not v else v)
    ~read_bit:(B.read_bit st) flat.Circuit.outputs

let run_and_measure_on (module B : Backend.S) ?(seed = 1) cfg (b : Circuit.b)
    (inputs : bool list) : bool list =
  let flat = Circuit.inline b in
  let st, rng = exec_on (module B) ~seed cfg flat inputs in
  measure_outputs (module B) rng cfg st flat

(* The historical statevector-fixed entry points. *)

let run_circuit ?(seed = 1) cfg (b : Circuit.b) (inputs : bool list) : Sv.state =
  run_circuit_on (module Backend.Statevector) ~seed cfg b inputs

let run_and_measure ?(seed = 1) cfg (b : Circuit.b) (inputs : bool list) : bool list =
  run_and_measure_on (module Backend.Statevector) ~seed cfg b inputs

(* ------------------------------------------------------------------ *)
(* Trial-based resilient running                                       *)

let channels_of cfg : Frame.channels =
  {
    Frame.bit_flip = cfg.bit_flip;
    phase_flip = cfg.phase_flip;
    depolarizing = cfg.depolarizing;
    readout = cfg.readout;
  }

type trial_outcome =
  | Success of int  (** right answer after this many attempts *)
  | Wrong of int  (** completed, silently wrong, after this many attempts *)
  | Gave_up  (** every allowed attempt ended in a detected failure *)
  | Errored of string
      (** the trial raised something other than [Termination_assertion]
          (backend limitation, unknown gate...): recorded, not retried,
          and — crucially — the rest of the campaign continues *)

type stats = {
  trials : int;
  successes : int;
  wrong : int;
  gave_up : int;
  errored : int;
  attempts : int;  (** total attempts across all trials *)
  detected_failures : int;
      (** attempts aborted by a [Termination_assertion] — the noise
          tripped an uncomputation claim, and the run knew it failed *)
  frame_attempts : int;  (** attempts completed by the Pauli-frame engine *)
  slow_attempts : int;  (** attempts that ran the full simulation *)
  fallback_reasons : string list;
      (** why frame-engine lanes fell back, oldest first, deduplicated —
          each names the offending gate/wire *)
  outcomes : trial_outcome array;  (** per-trial, for determinism checks *)
}

let success_rate s =
  if s.trials = 0 then 0.0 else float_of_int s.successes /. float_of_int s.trials

let pp_stats ppf s =
  Fmt.pf ppf
    "%d/%d trials succeeded (%.1f%%), %d wrong, %d gave up, %d errored; %d attempts (%d frame, %d slow), %d detected failures"
    s.successes s.trials (100.0 *. success_rate s) s.wrong s.gave_up s.errored
    s.attempts s.frame_attempts s.slow_attempts s.detected_failures;
  List.iter (fun r -> Fmt.pf ppf "@.  fallback: %s" r) s.fallback_reasons

(** One slow-path attempt: full noisy simulation at [seed], all
    non-assertion exceptions contained (one bad trial must never lose a
    million-trial sweep). *)
let slow_attempt_on (module B : Backend.S) ~seed cfg flat inputs =
  match
    let st, rng = exec_on (module B) ~seed cfg flat inputs in
    measure_outputs (module B) rng cfg st flat
  with
  | bits -> `Bits bits
  | exception Errors.Error (Errors.Termination_assertion _) -> `Detected
  | exception Errors.Error e -> `Errored (Errors.to_string e)
  | exception e -> `Errored (Printexc.to_string e)

(** [run_trials_on backend ~trials ~max_failures cfg b inputs ~expected]:
    run the circuit noisily [trials] times, each trial drawing its seeds
    from [Rng.derive master_seed] so the whole experiment replays from one
    number. An attempt whose noise trips an assertive termination is a
    {e detected} failure and is retried (up to [max_failures] retries per
    trial) — the runtime analogue of "the assertion told us the run went
    wrong, so run it again". Attempts that complete are compared against
    [expected]; silent corruption is counted, not retried (nothing at run
    time can see it — that asymmetry is the point of the experiment).

    [engine] picks the propagation machinery; outcomes are bit-identical
    either way (same derived seeds, same classification). [`Auto] (the
    default) runs eligible circuits through the {!Frame} engine — one
    round per retry rank, every still-alive trial a bit-packed lane —
    and falls back per lane (or whole-circuit) to the slow path;
    [`Slow] forces the historical one-simulation-per-attempt path. *)
let run_trials_on (module B : Backend.S) ?(master_seed = 1)
    ?(engine : Engine.t = Engine.default ()) ~trials ~max_failures cfg (b : Circuit.b)
    (inputs : bool list) ~(expected : bool list) : stats =
  if trials <= 0 then invalid_arg "Noise.run_trials: trials must be positive";
  if max_failures < 0 then invalid_arg "Noise.run_trials: negative max_failures";
  let flat = Circuit.inline b in
  let attempts = ref 0 and detected = ref 0 in
  let frame_attempts = ref 0 and slow_attempts = ref 0 in
  let reasons = ref [] in
  let note r = if not (List.mem r !reasons) then reasons := r :: !reasons in
  let seed_of t a = Rng.derive master_seed ((t * (max_failures + 1)) + a + 2) in
  let slow_attempt seed =
    incr attempts;
    incr slow_attempts;
    slow_attempt_on (module B) ~seed cfg flat inputs
  in
  let classify a bits = if bits = expected then Success (a + 1) else Wrong (a + 1) in
  let use_frame =
    match engine with
    | `Slow -> false
    | `Frame -> true
    (* the classical backend rejects circuits the frame engine would
       happily propagate (it has no quantum gates at all), so Auto only
       engages the frame over backends with Clifford-capable slow paths *)
    | `Auto -> not (String.equal B.name "classical")
  in
  let outcomes = Array.make trials Gave_up in
  if not use_frame then
    for t = 0 to trials - 1 do
      let rec go a =
        if a > max_failures then Gave_up
        else
          match slow_attempt (seed_of t a) with
          | `Bits bits -> classify a bits
          | `Detected ->
              incr detected;
              go (a + 1)
          | `Errored msg -> Errored msg
      in
      outcomes.(t) <- go 0
    done
  else begin
    (* round-based: round [a] propagates attempt [a] of every trial still
       alive, 63 trials per word operation; detected lanes re-enter the
       next round with their next derived seed, exactly as the slow
       path's per-trial retry loop would *)
    let alive = ref (List.init trials Fun.id) in
    let a = ref 0 in
    let all_slow = ref false in
    while !alive <> [] && !a <= max_failures do
      let lanes = Array.of_list !alive in
      let seeds = Array.map (fun t -> seed_of t !a) lanes in
      let next = ref [] in
      let retry t = if !a = max_failures then outcomes.(t) <- Gave_up else next := t :: !next in
      let slow_lane i t =
        match slow_attempt seeds.(i) with
        | `Bits bits -> outcomes.(t) <- classify !a bits
        | `Detected ->
            incr detected;
            retry t
        | `Errored msg -> outcomes.(t) <- Errored msg
      in
      if !all_slow then Array.iteri slow_lane lanes
      else begin
        let pr = Frame.noise_pass (channels_of cfg) flat inputs ~seeds in
        List.iter note pr.Frame.reasons;
        if pr.Frame.ineligible <> None then all_slow := true;
        Array.iteri
          (fun i t ->
            match Frame.lane_outcome pr i with
            | Frame.Lane_bits bits ->
                incr attempts;
                incr frame_attempts;
                outcomes.(t) <- classify !a (Array.to_list bits)
            | Frame.Lane_detected ->
                incr attempts;
                incr frame_attempts;
                incr detected;
                retry t
            | Frame.Lane_fallback -> slow_lane i t)
          lanes
      end;
      alive := List.rev !next;
      incr a
    done
  end;
  let count f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  {
    trials;
    successes = count (function Success _ -> true | _ -> false);
    wrong = count (function Wrong _ -> true | _ -> false);
    gave_up = count (function Gave_up -> true | _ -> false);
    errored = count (function Errored _ -> true | _ -> false);
    attempts = !attempts;
    detected_failures = !detected;
    frame_attempts = !frame_attempts;
    slow_attempts = !slow_attempts;
    fallback_reasons = List.rev !reasons;
    outcomes;
  }

let run_trials ?(master_seed = 1) ?engine ~trials ~max_failures cfg (b : Circuit.b)
    (inputs : bool list) ~(expected : bool list) : stats =
  run_trials_on (module Backend.Statevector) ~master_seed ?engine ~trials
    ~max_failures cfg b inputs ~expected

(* ------------------------------------------------------------------ *)
(* Plain output sampling (no expected answer, no retries)              *)

type sample =
  | Sampled of bool array  (** measured outputs, arity order *)
  | Assertion_tripped  (** a termination assertion aborted the trial *)
  | Sample_errored of string

type sample_summary = {
  sampled_trials : int;
  completed : int;
  assertion_tripped : int;
  sample_errored : int;
  frame_sampled : int;
  slow_sampled : int;
  snapshot_sampled : int;
  sample_reasons : string list;
}

(** [sample_trials_on backend ~trials cfg b inputs ~f]: one noisy run per
    trial (seed [Rng.derive master_seed (t + 2)] — the [run_trials]
    schedule at [max_failures = 0]), delivering each trial's measured
    outputs to [f t] in trial order. This is the entry point for
    workloads that decode outcomes offline — e.g. the repetition-code
    memory experiment, where the logical-error rate comes from majority
    votes over sampled syndrome/data bits, not from an expected-output
    comparison. Trials run through the {!Frame} engine in bit-packed
    blocks when eligible, the slow path otherwise. *)
let sample_trials_on (module B : Backend.S) ?(master_seed = 1)
    ?(engine : Engine.t = Engine.default ()) ~trials cfg (b : Circuit.b)
    (inputs : bool list) ~(f : int -> sample -> unit) : sample_summary =
  if trials <= 0 then invalid_arg "Noise.sample_trials: trials must be positive";
  let flat = Circuit.inline b in
  let completed = ref 0 and tripped = ref 0 and errored = ref 0 in
  let frame_n = ref 0 and slow_n = ref 0 and snapshot_n = ref 0 in
  let reasons = ref [] in
  let note r = if not (List.mem r !reasons) then reasons := r :: !reasons in
  let seed_of t = Rng.derive master_seed (t + 2) in
  let slow_trial t =
    incr slow_n;
    match slow_attempt_on (module B) ~seed:(seed_of t) cfg flat inputs with
    | `Bits bits ->
        incr completed;
        f t (Sampled (Array.of_list bits))
    | `Detected ->
        incr tripped;
        f t Assertion_tripped
    | `Errored msg ->
        incr errored;
        f t (Sample_errored msg)
  in
  let use_frame =
    match engine with
    | `Slow -> false
    | `Frame -> true
    | `Auto -> not (String.equal B.name "classical")
  in
  (* With every channel off, trial [t] is exactly the plain backend run
     at [seed_of t] — so [`Auto] freezes the pre-measurement state once
     ({!Backend.S.snapshot}) and draws every trial from the frozen copy;
     the sampling law (backend.mli) makes each outcome bit-identical to
     the full re-simulation the slow path would have run. Forced
     engines keep their historical machinery (they exist as cross-check
     paths), and any trouble in the one clean run — mid-circuit
     randomness ([snapshot] = [None]), tripped assertion, backend
     limitation — falls through to the engine dispatch below. *)
  let noiseless_snapshot =
    if engine <> `Auto || not (is_noiseless cfg) then None
    else
      match B.run_circuit ~seed:1 b inputs with
      | st -> B.snapshot st
      | exception _ -> None
  in
  (match noiseless_snapshot with
  | Some snap ->
      for t = 0 to trials - 1 do
        match
          B.sample_from snap ~rng:(Rng.create (seed_of t)) flat.Circuit.outputs
        with
        | bits ->
            incr snapshot_n;
            incr completed;
            f t (Sampled (Array.of_list bits))
        | exception Errors.Error (Errors.Termination_assertion _) ->
            incr tripped;
            f t Assertion_tripped
        | exception Errors.Error e ->
            incr errored;
            f t (Sample_errored (Errors.to_string e))
        | exception e ->
            incr errored;
            f t (Sample_errored (Printexc.to_string e))
      done
  | None ->
  if not use_frame then
    for t = 0 to trials - 1 do
      slow_trial t
    done
  else begin
    (* chunked passes: bounded memory however many trials are asked for *)
    let chunk = Frame.lanes_per_word * 1024 in
    let all_slow = ref false in
    let t0 = ref 0 in
    while !t0 < trials do
      let n = min chunk (trials - !t0) in
      if !all_slow then
        for i = 0 to n - 1 do
          slow_trial (!t0 + i)
        done
      else begin
        let seeds = Array.init n (fun i -> seed_of (!t0 + i)) in
        let pr = Frame.noise_pass (channels_of cfg) flat inputs ~seeds in
        List.iter note pr.Frame.reasons;
        if pr.Frame.ineligible <> None then all_slow := true;
        for i = 0 to n - 1 do
          let t = !t0 + i in
          match Frame.lane_outcome pr i with
          | Frame.Lane_bits bits ->
              incr frame_n;
              incr completed;
              f t (Sampled bits)
          | Frame.Lane_detected ->
              incr frame_n;
              incr tripped;
              f t Assertion_tripped
          | Frame.Lane_fallback -> slow_trial t
        done
      end;
      t0 := !t0 + n
    done
  end);
  {
    sampled_trials = trials;
    completed = !completed;
    assertion_tripped = !tripped;
    sample_errored = !errored;
    frame_sampled = !frame_n;
    slow_sampled = !slow_n;
    snapshot_sampled = !snapshot_n;
    sample_reasons = List.rev !reasons;
  }

let sample_trials ?(master_seed = 1) ?engine ~trials cfg (b : Circuit.b)
    (inputs : bool list) ~(f : int -> sample -> unit) : sample_summary =
  sample_trials_on (module Backend.Statevector) ~master_seed ?engine ~trials cfg b
    inputs ~f
