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
    fault's effect. *)

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

let equal_up_to_phase = Backend.equal_up_to_phase

let classify_on (module B : Backend.S) ~seed flat inputs ~clean
    (site : Faultsite.site) (p : pauli) : outcome =
  match
    execute_on (module B) ~seed flat inputs
      ~inject:(Some (site.Faultsite.index, site.Faultsite.wire, p))
  with
  | exception Errors.Error (Errors.Termination_assertion _) -> Detected
  | exception Errors.Error e -> Errored (Errors.to_string e)
  | exception e -> Errored (Printexc.to_string e)
  | st ->
      let obs, cbits = signature_on (module B) flat st in
      let clean_obs, clean_cbits = clean in
      if cbits = clean_cbits && Backend.equal_observation obs clean_obs then Masked
      else Corrupted

(** A prepared campaign over one circuit: the circuit is inlined once,
    sites enumerated once, and — the expensive part — the clean
    reference run (and its final-state signature) computed at most once,
    lazily, however many faults are classified against it. *)
type campaign = {
  cflat : Circuit.t;
  csites : Faultsite.site list;
  cclassify : Faultsite.site -> pauli -> outcome;
}

let campaign_on (module B : Backend.S) ?(seed = 1) (b : Circuit.b)
    (inputs : bool list) : campaign =
  let cflat, prov = Circuit.inline_provenance b in
  let csites = Faultsite.enumerate_flat ~flat:cflat ~prov in
  let clean =
    lazy
      (signature_on (module B) cflat
         (execute_on (module B) ~seed cflat inputs ~inject:None))
  in
  {
    cflat;
    csites;
    cclassify =
      (fun site p ->
        classify_on (module B) ~seed cflat inputs ~clean:(Lazy.force clean) site p);
  }

let run_site_on (module B : Backend.S) ?(seed = 1) (b : Circuit.b)
    (inputs : bool list) (site : Faultsite.site) (p : pauli) : outcome =
  let c = campaign_on (module B) ~seed b inputs in
  c.cclassify site p

let frame_fault (site : Faultsite.site) (p : pauli) : Frame.fault =
  let fx, fz = match p with X -> (true, false) | Y -> (true, true) | Z -> (false, true) in
  { Frame.findex = site.Faultsite.index; fwire = site.Faultsite.wire; fx; fz }

(** Exhaustive single-fault campaign: every site × every Pauli in
    [paulis]. With [engine] [`Auto] (default) or [`Frame], all faults are
    classified in one Pauli-frame propagation pass ({!Frame.inject_pass})
    when the circuit is eligible — one lane per fault instead of one full
    re-simulation per fault — with per-lane slow-path fallback; the
    masked test matches the backend's state-comparison semantics
    (canonical tableau vs amplitudes up to phase), so the classification
    is bit-identical to [`Slow]. *)
let report_on (module B : Backend.S) ?(seed = 1) ?(paulis = all_paulis)
    ?(engine : Engine.t = Engine.default ()) (b : Circuit.b) (inputs : bool list) :
    report =
  let c = campaign_on (module B) ~seed b inputs in
  let site_paulis =
    List.concat_map (fun site -> List.map (fun p -> (site, p)) paulis) c.csites
  in
  let semantics =
    match engine with
    | `Slow -> None
    | `Frame | `Auto -> (
        (* which masked-fault semantics does this backend's state
           comparison imply? Bit-observation backends (classical) have
           neither — they take the slow path. *)
        match B.observe (B.create ~seed:1 ()) with
        | Backend.Obs_tableau _ -> Some Frame.Tableau
        | Backend.Obs_amplitudes _ -> Some Frame.Amplitudes
        | Backend.Obs_bits _ -> None)
  in
  let frame_n = ref 0 and slow_n = ref 0 in
  let reasons = ref [] in
  let note r = if not (List.mem r !reasons) then reasons := r :: !reasons in
  let findings =
    match semantics with
    | Some sem when site_paulis <> [] ->
        let faults = Array.of_list (List.map (fun (s, p) -> frame_fault s p) site_paulis) in
        let ir = Frame.inject_pass ~semantics:sem c.cflat inputs ~faults in
        List.iter note ir.Frame.inject_reasons;
        (match ir.Frame.inject_ineligible with Some r -> note r | None -> ());
        List.mapi
          (fun i (site, p) ->
            let outcome =
              match ir.Frame.fault_outcomes.(i) with
              | Frame.F_detected ->
                  incr frame_n;
                  Detected
              | Frame.F_corrupted ->
                  incr frame_n;
                  Corrupted
              | Frame.F_masked ->
                  incr frame_n;
                  Masked
              | Frame.F_fallback ->
                  incr slow_n;
                  c.cclassify site p
            in
            { site; fault = p; outcome })
          site_paulis
    | _ ->
        (match (engine, semantics) with
        | `Frame, None ->
            note
              (Printf.sprintf
                 "frame: backend %s observes classical bits only; campaign ran on the slow path"
                 B.name)
        | _ -> ());
        List.map
          (fun (site, p) ->
            incr slow_n;
            { site; fault = p; outcome = c.cclassify site p })
          site_paulis
  in
  let count o =
    List.fold_left (fun acc f -> if f.outcome = o then acc + 1 else acc) 0 findings
  in
  {
    gates = Array.length c.cflat.Circuit.gates;
    sites = List.length c.csites;
    faults = List.length findings;
    detected = count Detected;
    corrupted = count Corrupted;
    masked = count Masked;
    errored =
      List.fold_left
        (fun acc f -> match f.outcome with Errored _ -> acc + 1 | _ -> acc)
        0 findings;
    frame_faults = !frame_n;
    slow_faults = !slow_n;
    fallback_reasons = List.rev !reasons;
    findings;
  }

(* The historical statevector-fixed entry points. *)

let run_site ?(seed = 1) (b : Circuit.b) (inputs : bool list)
    (site : Faultsite.site) (p : pauli) : outcome =
  run_site_on (module Backend.Statevector) ~seed b inputs site p

let report ?(seed = 1) ?(paulis = all_paulis) ?engine (b : Circuit.b)
    (inputs : bool list) : report =
  report_on (module Backend.Statevector) ~seed ~paulis ?engine b inputs

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
