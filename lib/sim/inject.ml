(** Single-fault Pauli injection and outcome classification.

    The extended circuit model's assertive terminations ("-|0", §4.2.2)
    are a programmer {e claim} that uncomputation succeeded, and the
    simulators are the only thing that checks it. This engine measures
    how much protection that checking buys: enumerate every fault site of
    a circuit ({!Quipper.Faultsite}, recursing through boxed
    subroutines), inject a single Pauli at each, re-run, and classify:

    - {e detected}: a [Termination_assertion] fired — the fault flipped a
      wire whose asserted termination the simulator checks;
    - {e corrupted}: the run completed but the output state differs —
      silent wrong answer, the dangerous class;
    - {e masked}: the output state is unchanged (e.g. a Z on a wire in a
      basis state, or a flip that later logic cancels).

    Campaigns are generic over a {!Backend.S}: the injected Paulis are
    Clifford operations, so circuits within the stabilizer gate set can
    run their campaign on the polynomial-time Clifford backend — states
    are then compared by canonical stabilizer form instead of amplitude
    vectors. On the statevector backend, states are compared as full
    amplitude vectors up to global phase (plus classical outputs), so
    phase damage that would be observable by any further interference
    counts as corruption. Clean and faulty runs share one seed, so any
    measurements draw identically and the comparison isolates the
    fault's effect.

    An exhaustive campaign is {!Frame.campaign}'s lane loop with one lane
    per fault and no retries. *)

open Quipper

type pauli = X | Y | Z

let pauli_name = function X -> "X" | Y -> "Y" | Z -> "Z"
let all_paulis = [ X; Y; Z ]

type outcome = Detected | Corrupted | Masked | Errored of string

let outcome_name = function
  | Detected -> "detected"
  | Corrupted -> "corrupted"
  | Masked -> "masked"
  | Errored _ -> "errored"

type finding = { site : Faultsite.site; fault : pauli; outcome : outcome }

type report = {
  gates : int;  (** gate count of the inlined circuit *)
  sites : int;
  faults : int;
  detected : int;
  corrupted : int;
  masked : int;
  errored : int;
      (** slow-path classifications that raised something other than
          [Termination_assertion]; recorded so one bad fault never loses
          an exhaustive sweep *)
  frame_faults : int;  (** faults classified by the Pauli-frame engine *)
  slow_faults : int;  (** faults classified by full re-simulation *)
  fallback_reasons : string list;
      (** why frame lanes (or the whole campaign) fell back, each naming
          the offending gate/wire *)
  findings : finding list;
}

(* ------------------------------------------------------------------ *)

let apply_pauli (type s) (module B : Backend.S with type state = s) (st : s) p w =
  B.apply_gate st
    (Gate.Gate { name = pauli_name p; inv = false; targets = [ w ]; controls = [] })

(** Execute the inlined [flat] circuit, optionally striking [pauli] on
    [wire] right after gate [index] ([-1] = before the first gate). *)
let execute_on (type s) (module B : Backend.S with type state = s) ~seed
    (flat : Circuit.t) (inputs : bool list)
    ~(inject : (int * Wire.t * pauli) option) : s =
  let st = B.create ~seed () in
  Drive.load B.name (B.apply_gate st) flat.Circuit.inputs inputs;
  (match inject with Some (-1, w, p) -> apply_pauli (module B) st p w | _ -> ());
  Array.iteri
    (fun i g ->
      B.apply_gate st g;
      match inject with
      | Some (j, w, p) when j = i -> apply_pauli (module B) st p w
      | _ -> ())
    flat.Circuit.gates;
  st

(** The observable content of a final state: the backend's observation of
    the quantum part plus the classical output bits. *)
let signature_on (type s) (module B : Backend.S with type state = s)
    (flat : Circuit.t) (st : s) : Backend.observation * bool list =
  let cbits =
    List.filter_map
      (fun (e : Wire.endpoint) ->
        match e.Wire.ty with
        | Wire.C -> Some (B.read_bit st e.Wire.wire)
        | Wire.Q -> None)
      flat.Circuit.outputs
  in
  (B.observe st, cbits)

(** The slow classifier over one inlined circuit: the clean reference
    run (and its signature) is computed at most once, lazily, however
    many faults are classified against it. A classification is [Done]
    with [true] when the fault is masked. The clean run is contained
    like a faulty one: when it raises, every fault classifies as what
    it raised ([Errored], or [Detected] for a termination assertion). *)
let classifier_on (module B : Backend.S) ~seed (flat : Circuit.t) (inputs : bool list) =
  let clean =
    lazy
      (Frame.contain (fun () ->
           signature_on (module B) flat (execute_on (module B) ~seed flat inputs ~inject:None)))
  in
  fun ((site : Faultsite.site), p) ->
    match Lazy.force clean with
    | Frame.Detected -> Frame.Detected
    | Frame.Errored msg -> Frame.Errored msg
    | Frame.Done (clean_obs, clean_cbits) ->
        Frame.contain (fun () ->
            let st =
              execute_on (module B) ~seed flat inputs
                ~inject:(Some (site.Faultsite.index, site.Faultsite.wire, p))
            in
            let obs, cbits = signature_on (module B) flat st in
            cbits = clean_cbits && Backend.equal_observation obs clean_obs)

let outcome_of = function
  | Frame.Done true -> Masked
  | Frame.Done false -> Corrupted
  | Frame.Detected -> Detected
  | Frame.Errored msg -> Errored msg

let run_site_on (module B : Backend.S) ?(seed = 1) (b : Circuit.b)
    (inputs : bool list) (site : Faultsite.site) (p : pauli) : outcome =
  outcome_of (classifier_on (module B) ~seed (Circuit.inline b) inputs (site, p))

let frame_fault ((site : Faultsite.site), p) : Frame.fault =
  let fx, fz = match p with X -> (true, false) | Y -> (true, true) | Z -> (false, true) in
  { Frame.findex = site.Faultsite.index; fwire = site.Faultsite.wire; fx; fz }

(** Exhaustive single-fault campaign: every site × every Pauli in
    [paulis], one lane each of {!Frame.campaign}'s loop. On the frame
    engine one propagation pass classifies a chunk of faults instead of
    one full re-simulation per fault; its masked test matches the
    backend's state comparison (canonical tableau vs amplitudes up to
    phase), so the classification is bit-identical to [`Slow]. *)
let report_on (module B : Backend.S) ?(seed = 1) ?(paulis = all_paulis)
    ?(engine : Engine.t = Engine.default ()) (b : Circuit.b) (inputs : bool list) :
    report =
  let flat, prov = Circuit.inline_provenance b in
  let sites = Faultsite.enumerate_flat ~flat ~prov in
  let faults =
    Array.of_list (List.concat_map (fun site -> List.map (fun p -> (site, p)) paulis) sites)
  in
  let classify = classifier_on (module B) ~seed flat inputs in
  let outcomes = Array.make (Array.length faults) Masked in
  let tally =
    Frame.campaign (module B) engine ~lanes:(Array.length faults) ~rounds:1
      ~frame:(fun sem ~round:_ ~lanes ~lane ->
        Frame.inject_pass sem flat inputs ~lanes ~fault:(fun i ->
            frame_fault faults.(lane i)))
      ~slow:(fun ~lane ~round:_ -> classify faults.(lane))
      ~finish:(fun ~lane ~round:_ v -> outcomes.(lane) <- outcome_of v)
  in
  let findings =
    List.mapi
      (fun i (site, fault) -> { site; fault; outcome = outcomes.(i) })
      (Array.to_list faults)
  in
  let count f = Array.fold_left (fun acc o -> if f o then acc + 1 else acc) 0 outcomes in
  {
    gates = Array.length flat.Circuit.gates;
    sites = List.length sites;
    faults = Array.length faults;
    detected = count (( = ) Detected);
    corrupted = count (( = ) Corrupted);
    masked = count (( = ) Masked);
    errored = count (function Errored _ -> true | _ -> false);
    frame_faults = tally.Frame.frame;
    slow_faults = tally.Frame.slow;
    fallback_reasons = tally.Frame.fallback_reasons;
    findings;
  }

let pct part whole =
  if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

let pp_report ppf r =
  Fmt.pf ppf "fault injection: %d sites x %d paulis = %d faults over %d gates@."
    r.sites
    (if r.sites = 0 then 0 else r.faults / r.sites)
    r.faults r.gates;
  Fmt.pf ppf "  detected  %5d (%5.1f%%)  Termination_assertion fired@." r.detected
    (pct r.detected r.faults);
  Fmt.pf ppf "  corrupted %5d (%5.1f%%)  silent wrong output@." r.corrupted
    (pct r.corrupted r.faults);
  Fmt.pf ppf "  masked    %5d (%5.1f%%)  output unchanged@." r.masked
    (pct r.masked r.faults);
  if r.errored > 0 then
    Fmt.pf ppf "  errored   %5d (%5.1f%%)  classification raised@." r.errored
      (pct r.errored r.faults);
  Fmt.pf ppf "  engine: %d faults via pauli frames, %d via re-simulation@."
    r.frame_faults r.slow_faults;
  List.iter (fun reason -> Fmt.pf ppf "  fallback: %s@." reason) r.fallback_reasons
