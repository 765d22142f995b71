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
    where the circuit's own gates permit. Both campaigns are
    {!Frame.campaign}'s lane loop: [run_trials_on] with one round per
    retry, [sample_trials_on] with one round.

    Seed discipline: the backend's own measurement stream uses the given
    seed unchanged, so a configuration with all probabilities zero is
    {e bit-identical} to the plain backend run; noise decisions draw from
    the derived child stream [Rng.derive seed 1]. *)

open Quipper
module Rng = Quipper_math.Rng

type config = Frame.config = {
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

(* ------------------------------------------------------------------ *)
(* Trial-based resilient running                                       *)

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

(** One slow-path attempt: full noisy simulation at [seed]. *)
let slow_attempt_on (module B : Backend.S) ~seed cfg flat inputs =
  Frame.contain (fun () ->
      let st, rng = exec_on (module B) ~seed cfg flat inputs in
      Array.of_list (measure_outputs (module B) rng cfg st flat))

(** [run_trials_on backend ~trials ~max_failures cfg b inputs ~expected]:
    run the circuit noisily [trials] times, each trial drawing its seeds
    from [Rng.derive master_seed] so the whole experiment replays from one
    number. An attempt whose noise trips an assertive termination is a
    {e detected} failure and is retried (up to [max_failures] retries per
    trial) — the runtime analogue of "the assertion told us the run went
    wrong, so run it again". Attempts that complete are compared against
    [expected]; silent corruption is counted, not retried (nothing at run
    time can see it — that asymmetry is the point of the experiment).
    Round [a] of the lane loop runs attempt [a] of every trial still
    alive. *)
let run_trials_on (module B : Backend.S) ?(master_seed = 1)
    ?(engine : Engine.t = Engine.default ()) ~trials ~max_failures cfg (b : Circuit.b)
    (inputs : bool list) ~(expected : bool list) : stats =
  if trials <= 0 then invalid_arg "Noise.run_trials_on: trials must be positive";
  if max_failures < 0 then invalid_arg "Noise.run_trials_on: negative max_failures";
  let flat = Circuit.inline b in
  let expected = Array.of_list expected in
  let seed_of t a = Rng.derive master_seed ((t * (max_failures + 1)) + a + 2) in
  let outcomes = Array.make trials Gave_up in
  (* one value per attempt count, so that a trial costs the campaign one
     word: its slot in [outcomes] *)
  let success = Array.init (max_failures + 1) (fun a -> Success (a + 1)) in
  let wrong = Array.init (max_failures + 1) (fun a -> Wrong (a + 1)) in
  let tally =
    Frame.campaign (module B) engine ~lanes:trials ~rounds:(max_failures + 1)
      ~frame:(fun _ ~round ~lanes ~lane ->
        Frame.noise_pass cfg flat inputs ~lanes ~seed:(fun i -> seed_of (lane i) round))
      ~slow:(fun ~lane ~round ->
        slow_attempt_on (module B) ~seed:(seed_of lane round) cfg flat inputs)
      ~finish:(fun ~lane ~round v ->
        outcomes.(lane) <-
          (match v with
          | Frame.Done bits -> if bits = expected then success.(round) else wrong.(round)
          | Frame.Detected -> Gave_up
          | Frame.Errored msg -> Errored msg))
  in
  let count f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  {
    trials;
    successes = count (function Success _ -> true | _ -> false);
    wrong = count (function Wrong _ -> true | _ -> false);
    gave_up = count (function Gave_up -> true | _ -> false);
    errored = count (function Errored _ -> true | _ -> false);
    attempts = tally.Frame.frame + tally.Frame.slow;
    detected_failures = tally.Frame.detected;
    frame_attempts = tally.Frame.frame;
    slow_attempts = tally.Frame.slow;
    fallback_reasons = tally.Frame.fallback_reasons;
    outcomes;
  }

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
    trial (seed [Rng.derive master_seed (t + 2)] — the [run_trials_on]
    schedule at [max_failures = 0]), delivering each trial's measured
    outputs to [f t] in trial order. This is the entry point for
    workloads that decode outcomes offline — e.g. the repetition-code
    memory experiment, where the logical-error rate comes from majority
    votes over sampled syndrome/data bits, not from an expected-output
    comparison. *)
let sample_trials_on (module B : Backend.S) ?(master_seed = 1)
    ?(engine : Engine.t = Engine.default ()) ~trials cfg (b : Circuit.b)
    (inputs : bool list) ~(f : int -> sample -> unit) : sample_summary =
  if trials <= 0 then invalid_arg "Noise.sample_trials_on: trials must be positive";
  let flat = Circuit.inline b in
  let completed = ref 0 and tripped = ref 0 and errored = ref 0 in
  let seed_of t = Rng.derive master_seed (t + 2) in
  let emit t = function
    | Frame.Done bits ->
        incr completed;
        f t (Sampled bits)
    | Frame.Detected ->
        incr tripped;
        f t Assertion_tripped
    | Frame.Errored msg ->
        incr errored;
        f t (Sample_errored msg)
  in
  (* With every channel off, trial [t] is exactly the plain backend run
     at [seed_of t] — so [`Auto] freezes the pre-measurement state once
     ({!Backend.S.snapshot}) and draws every trial from the frozen copy;
     the sampling law (backend.mli) makes each outcome bit-identical to
     the full re-simulation the slow path would have run. Forced
     engines keep their historical machinery (they exist as cross-check
     paths), and any trouble in the one clean run — mid-circuit
     randomness ([snapshot] = [None]), tripped assertion, backend
     limitation — falls through to the lane loop below. *)
  let noiseless_snapshot =
    if engine <> `Auto || not (is_noiseless cfg) then None
    else
      match B.run_circuit ~seed:1 b inputs with
      | st -> B.snapshot st
      | exception _ -> None
  in
  let frame_n, slow_n, snapshot_n, reasons =
    match noiseless_snapshot with
    | Some snap ->
        let drawn = ref 0 in
        for t = 0 to trials - 1 do
          let v =
            Frame.contain (fun () ->
                Array.of_list
                  (B.sample_from snap ~rng:(Rng.create (seed_of t)) flat.Circuit.outputs))
          in
          (match v with Frame.Done _ -> incr drawn | _ -> ());
          emit t v
        done;
        (0, 0, !drawn, [])
    | None ->
        let tally =
          Frame.campaign (module B) engine ~lanes:trials ~rounds:1
            ~frame:(fun _ ~round:_ ~lanes ~lane ->
              Frame.noise_pass cfg flat inputs ~lanes ~seed:(fun i -> seed_of (lane i)))
            ~slow:(fun ~lane ~round:_ ->
              slow_attempt_on (module B) ~seed:(seed_of lane) cfg flat inputs)
            ~finish:(fun ~lane ~round:_ v -> emit lane v)
        in
        (tally.Frame.frame, tally.Frame.slow, 0, tally.Frame.fallback_reasons)
  in
  {
    sampled_trials = trials;
    completed = !completed;
    assertion_tripped = !tripped;
    sample_errored = !errored;
    frame_sampled = frame_n;
    slow_sampled = slow_n;
    snapshot_sampled = snapshot_n;
    sample_reasons = reasons;
  }
