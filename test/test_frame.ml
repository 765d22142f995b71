(* Tests for the Pauli-frame fault engine (Quipper_sim.Frame) and the
   one lane loop the campaigns share: the acceptance property is engine
   invariance — at equal derived seeds, every campaign decides each
   trial, sample and fault the same under `Auto, `Frame and `Slow, on
   every backend and at every domain count, over a 100+-circuit
   deterministic Clifford corpus. *)

open Quipper
open Circ
module Noise = Quipper_sim.Noise
module Inject = Quipper_sim.Inject
module Frame = Quipper_sim.Frame
module Backend = Quipper_sim.Backend
module Kernel = Quipper_sim.Kernel
module Rng = Quipper_math.Rng
module R = Algo_repcode

let check = Alcotest.(check bool)
let contains = Astring_contains.contains

(* ------------------------------------------------------------------ *)
(* A deterministic Clifford corpus: random stabilizer sandwiches U;U†.
   Every circuit is built from the clifford gate set and ends in the
   computational-basis state it started from, so every measurement and
   assertive termination is deterministic on the clean run — exactly
   the frame engine's eligibility class — while noise exercises every
   conjugation rule, detection, retry and readout path. *)

type cg =
  | G1 of string * int  (* self-inverse: H, X, Y, Z *)
  | Gs of int
  | Gv of int
  | Gcnot of int * int * bool  (* control polarity *)
  | Gcz of int * int
  | Gswap of int * int

let rand_gate rng n =
  let w () = Rng.int rng n in
  let pair () =
    let a = w () and b = w () in
    (a, if b = a then (b + 1) mod n else b)
  in
  match Rng.int rng 11 with
  | 0 | 1 -> G1 ("H", w ())
  | 2 -> G1 ("X", w ())
  | 3 -> G1 ("Y", w ())
  | 4 -> G1 ("Z", w ())
  | 5 -> Gs (w ())
  | 6 -> Gv (w ())
  | 7 ->
      let a, b = pair () in
      Gcnot (a, b, true)
  | 8 ->
      let a, b = pair () in
      Gcnot (a, b, false)
  | 9 ->
      let a, b = pair () in
      Gcz (a, b)
  | _ ->
      let a, b = pair () in
      Gswap (a, b)

let apply qs = function
  | G1 ("H", i) -> hadamard_ qs.(i)
  | G1 (nm, i) -> gate1 nm qs.(i)
  | Gs i ->
      let* _ = gate_S qs.(i) in
      return ()
  | Gv i ->
      let* _ = gate_V qs.(i) in
      return ()
  | Gcnot (a, b, true) -> cnot ~control:qs.(a) ~target:qs.(b)
  | Gcnot (a, b, false) -> with_controls [ ctl_neg qs.(a) ] (qnot_ qs.(b))
  | Gcz (a, b) -> with_controls [ ctl qs.(a) ] (gate1 "Z" qs.(b))
  | Gswap (a, b) -> swap qs.(a) qs.(b)

let unapply qs = function
  | Gs i -> gate_S_inv qs.(i)
  | Gv i -> gate_V_inv qs.(i)
  | g -> apply qs g

let rand_gates rng ~n ~len = List.init len (fun _ -> rand_gate rng n)

let sandwich gs qs =
  let* () = iterm (apply qs) gs in
  iterm (unapply qs) (List.rev gs)

(* Variant A: U;U† — outputs are the inputs, measured deterministic. *)
let circuit_plain ~n gs =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* () = sandwich gs qs in
        return ql)
  in
  b

(* Variant B: a |0> ancilla joins the register inside its own sandwich,
   then assertively terminates — under noise the assertion makes
   Detected failures (and retries, and Gave_up) reachable. *)
let circuit_ancilla ~n gs gs2 =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* () = sandwich gs qs in
        let* a = qinit_bit false in
        let ext = Array.append qs [| a |] in
        let* () = sandwich gs2 ext in
        let* () = qterm_bit false a in
        return ql)
  in
  b

(* Variant C: mid-circuit measurement feeding a classically-controlled
   Pauli — the error-correction shape. The measured bit is
   deterministic on the clean run; under noise it diverges per trial,
   and the frame engine must absorb the divergence exactly (a
   classically-controlled X is a Pauli either way). *)
let circuit_measure ~n gs =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* () = sandwich gs qs in
        let* m = measure_qubit qs.(0) in
        let* () = with_controls [ ctl_bit m ] (qnot_ qs.(1)) in
        return ())
  in
  b

let corpus_cfg =
  { Noise.bit_flip = 0.01; phase_flip = 0.005; depolarizing = 0.05; readout = 0.01 }

let stats_agree (s1 : Noise.stats) (s2 : Noise.stats) =
  s1.Noise.outcomes = s2.Noise.outcomes
  && s1.Noise.successes = s2.Noise.successes
  && s1.Noise.wrong = s2.Noise.wrong
  && s1.Noise.gave_up = s2.Noise.gave_up
  && s1.Noise.errored = s2.Noise.errored
  && s1.Noise.attempts = s2.Noise.attempts
  && s1.Noise.detected_failures = s2.Noise.detected_failures

(* ------------------------------------------------------------------ *)
(* Engine invariance, one law: every campaign decides the same under
   `Auto, `Frame and `Slow, on every backend, at 1, 2 and 4 kernel
   domains. Counters (which engine settled a lane) may differ; what the
   campaign decides may not. *)

type case = {
  label : string;
  circ : Circuit.b;
  inputs : bool list;
  expected : bool list;
  cfg : Noise.config;
  master_seed : int;
  eligible : bool;  (** the frame engine must carry lanes on quantum backends *)
}

let case ?(expected = []) ?(cfg = Noise.none) ?(master_seed = 1) ~eligible label circ
    inputs =
  { label; circ; inputs; expected; cfg; master_seed; eligible }

(* What a campaign decides: per-trial outcomes, per-trial samples in
   delivery order, per-fault findings, or the text of what it raised
   (no campaign should raise, but engines must agree if one does). *)
type decided =
  | Trials of Noise.trial_outcome array
  | Samples of (int * Noise.sample) list
  | Findings of Inject.finding list
  | Raised of string

(* each campaign returns what it decided and how many lanes the frame
   engine settled *)
let trials_campaign c backend engine =
  let s =
    Noise.run_trials_on backend ~master_seed:c.master_seed ~engine ~trials:20
      ~max_failures:2 c.cfg c.circ c.inputs ~expected:c.expected
  in
  (Trials s.Noise.outcomes, s.Noise.frame_attempts)

let samples_campaign cfg c backend engine =
  let got = ref [] in
  let s =
    Noise.sample_trials_on backend ~master_seed:c.master_seed ~engine ~trials:20 cfg
      c.circ c.inputs ~f:(fun t x -> got := (t, x) :: !got)
  in
  (Samples (List.rev !got), s.Noise.frame_sampled)

let inject_campaign c backend engine =
  let r = Inject.report_on backend ~seed:3 ~engine c.circ c.inputs in
  (Findings r.Inject.findings, r.Inject.frame_faults)

let check_law ~campaigns cases =
  let engines : Quipper_sim.Engine.t list = [ `Auto; `Frame; `Slow ] in
  let saved = !Kernel.num_domains in
  Fun.protect
    ~finally:(fun () -> Kernel.num_domains := saved)
    (fun () ->
      List.iter
        (fun c ->
          List.iter
            (fun ((module B : Backend.S) as backend) ->
              List.iter
                (fun (what, auto_frames, campaign) ->
                  let reference = ref None in
                  List.iter
                    (fun domains ->
                      Kernel.num_domains := domains;
                      List.iter
                        (fun engine ->
                          let decided, framed =
                            match campaign c backend engine with
                            | r -> r
                            | exception e -> (Raised (Printexc.to_string e), 0)
                          in
                          let where =
                            Fmt.str "%s, %s on %s, engine %a, %d domains" c.label what
                              B.name Quipper_sim.Engine.pp engine domains
                          in
                          (match !reference with
                          | None -> reference := Some decided
                          | Some r ->
                              if r <> decided then
                                Alcotest.failf "%s: decides differently" where);
                          let quantum = not (String.equal B.name "classical") in
                          let frames = engine = `Frame || (engine = `Auto && auto_frames) in
                          if frames && quantum && c.eligible && framed = 0 then
                            Alcotest.failf "%s: frame engine never engaged" where;
                          if (not quantum) && framed > 0 then
                            Alcotest.failf "%s: frame engine ran on classical bits" where)
                        engines)
                    [ 1; 2; 4 ])
                campaigns)
            Backend.all)
        cases)

(* The trial corpus: >= 100 circuits, under run_trials and noisy and
   noiseless sampling. *)
let trial_corpus () =
  let n = 4 in
  List.concat_map
    (fun seed ->
      let rng = Rng.create seed in
      let len = 4 + Rng.int rng 12 in
      let gs = rand_gates rng ~n ~len in
      let gs2 = rand_gates rng ~n:(n + 1) ~len:6 in
      let inputs = List.init n (fun _ -> Rng.int rng 2 = 1) in
      List.mapi
        (fun v circ ->
          case ~cfg:corpus_cfg ~master_seed:(7 * seed) ~eligible:true
            ~expected:
              (Noise.run_and_measure_on (module Backend.Clifford) ~seed:1 Noise.none circ
                 inputs)
            (Fmt.str "corpus seed %d variant %d" seed v)
            circ inputs)
        [ circuit_plain ~n gs; circuit_ancilla ~n gs gs2; circuit_measure ~n gs ])
    (List.init 40 succ)

(* Aggregate bit-identity on the same corpus: `Auto and `Slow agree on
   every counter a campaign reports (attempts and detected failures
   included, not only per-trial outcomes), on both quantum backends,
   and the frame engine carries lanes on every circuit. *)
let test_corpus_trials_bit_identical () =
  let cases = trial_corpus () in
  check "corpus has at least 100 circuits" true (List.length cases >= 100);
  List.iter
    (fun c ->
      List.iter
        (fun ((module B : Backend.S) as backend) ->
          if not (String.equal B.name "classical") then begin
            let run engine =
              Noise.run_trials_on backend ~master_seed:c.master_seed ~engine ~trials:20
                ~max_failures:2 c.cfg c.circ c.inputs ~expected:c.expected
            in
            let s_slow = run `Slow and s_auto = run `Auto in
            if not (stats_agree s_slow s_auto) then
              Alcotest.failf "%s on %s: frame and slow outcomes differ" c.label B.name;
            if s_auto.Noise.frame_attempts = 0 then
              Alcotest.failf "%s on %s: frame engine never engaged (reasons: %s)" c.label
                B.name
                (String.concat "; " s_auto.Noise.fallback_reasons)
          end)
        Backend.all)
    cases

(* A classical-reversible circuit with a self-cancelling H pair: the
   classical backend cannot run it, so no engine may complete it. *)
let hh_cnot_case =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 2 Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* () = hadamard_ qs.(0) in
        let* () = hadamard_ qs.(0) in
        let* () = cnot ~control:qs.(0) ~target:qs.(1) in
        return ql)
  in
  case ~expected:[ true; true ] ~cfg:(Noise.bit_flip 0.0) ~eligible:false "H; H; CNOT" b
    [ true; false ]

(* H then not: a Clifford circuit whose clean run the classical backend
   cannot execute. *)
let h_not_circ =
  fst
    (Circ.generate ~in_:Qdata.qubit (fun q ->
         let* () = hadamard_ q in
         let* () = qnot_ q in
         return q))

let h_not_case = case ~eligible:true "H; not" h_not_circ [ false ]

(* A clean run that raises is contained: every fault of the campaign is
   Errored with its text, and the campaign itself does not raise. *)
let test_inject_clean_raises () =
  let r = Inject.report_on (module Backend.Classical) h_not_circ [ false ] in
  check "faults enumerated" true (r.Inject.faults > 0);
  check "every fault Errored with the backend's message" true
    (r.Inject.errored = r.Inject.faults
    && List.for_all
         (fun (f : Inject.finding) ->
           f.Inject.outcome = Inject.Errored "simulation error: classical: gate H is not classical")
         r.Inject.findings)

(* The 3-bit in-place adder (Toffolis, so every engine runs it slow) at
   a few inputs: the domain count must not change a trial. *)
let adder_cases =
  let module Qdint = Quipper_arith.Qdint in
  let shape = Qdata.pair (Qdint.shape 3) (Qdint.shape 3) in
  let b, _ =
    Circ.generate ~in_:shape (fun (x, y) ->
        let* () = Qdint.add_in_place ~x ~y () in
        return (x, y))
  in
  List.map
    (fun (x, y) ->
      case
        ~expected:(Qdata.bleaves shape (x, (x + y) mod 8))
        ~cfg:(Noise.depolarizing 0.03) ~master_seed:(x + (8 * y)) ~eligible:false
        (Fmt.str "adder %d+%d" x y) b
        (Qdata.bleaves shape (x, y)))
    [ (0, 0); (3, 5); (7, 6) ]

let test_law_trials () =
  let cases = trial_corpus () in
  check "corpus has at least 100 circuits" true (List.length cases >= 100);
  check_law
    ~campaigns:
      [
        ("run_trials", true, trials_campaign);
        ("noisy sample_trials", true, fun c -> samples_campaign c.cfg c);
        (* `Auto samples a noiseless campaign from one snapshot *)
        ("noiseless sample_trials", false, samples_campaign Noise.none);
      ]
    ((hh_cnot_case :: adder_cases) @ cases)

(* The inject corpus, under each backend's masked-fault semantics. *)
let test_law_inject () =
  let n = 3 in
  let cases =
    List.concat_map
      (fun seed ->
        let rng = Rng.create (100 + seed) in
        let len = 3 + Rng.int rng 6 in
        let gs = rand_gates rng ~n ~len in
        let inputs = List.init n (fun _ -> Rng.int rng 2 = 1) in
        List.mapi
          (fun v circ ->
            case ~eligible:true (Fmt.str "inject seed %d variant %d" seed v) circ inputs)
          [ circuit_plain ~n gs; circuit_measure ~n gs ])
      (List.init 12 succ)
  in
  check_law ~campaigns:[ ("report", true, inject_campaign) ]
    ((hh_cnot_case :: h_not_case :: adder_cases) @ cases)

(* Graceful degradation: a non-Clifford gate makes the campaign fall
   back wholesale, outcomes still bit-identical, and the report names
   the offending gate — mirroring the clifford backend's rejections. *)
let test_fallback_names_the_gate () =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 2 Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* _ = gate_T qs.(0) in
        let* () = cnot ~control:qs.(0) ~target:qs.(1) in
        return ql)
  in
  let inputs = [ false; false ] in
  let run engine =
    Noise.run_trials_on
      (module Backend.Statevector)
      ~master_seed:5 ~engine ~trials:8 ~max_failures:1 (Noise.depolarizing 0.02) b
      inputs ~expected:inputs
  in
  let s_slow = run `Slow and s_auto = run `Auto in
  check "ineligible circuit still bit-identical" true (stats_agree s_slow s_auto);
  check "every attempt fell back to the slow path" true
    (s_auto.Noise.frame_attempts = 0 && s_auto.Noise.slow_attempts = s_auto.Noise.attempts);
  check "the fallback reason names the T gate" true
    (List.exists (fun r -> contains r "T") s_auto.Noise.fallback_reasons)

let test_inject_fallback_names_the_gate () =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 2 Qdata.qubit) (fun ql ->
        let qs = Array.of_list ql in
        let* () = rot_Z 0.3 qs.(0) in
        let* () = cnot ~control:qs.(0) ~target:qs.(1) in
        return ql)
  in
  let inputs = [ true; false ] in
  let r_slow =
    Inject.report_on (module Backend.Statevector) ~engine:`Slow b inputs
  in
  let r_auto =
    Inject.report_on (module Backend.Statevector) ~engine:`Auto b inputs
  in
  check "findings identical under wholesale fallback" true
    (r_slow.Inject.findings = r_auto.Inject.findings);
  check "all faults took the slow path" true
    (r_auto.Inject.frame_faults = 0 && r_auto.Inject.slow_faults = r_auto.Inject.faults);
  check "the report names the rotation" true
    (List.exists (fun r -> contains r "Rz") r_auto.Inject.fallback_reasons)

(* ------------------------------------------------------------------ *)
(* The repetition-code workload                                        *)

let test_repcode_shape () =
  let p = { R.distance = 5; rounds = 2 } in
  let b = R.generate ~p () in
  let flat = Circuit.inline b in
  check "no inputs" true (flat.Circuit.inputs = []);
  check "output arity" true
    (List.length flat.Circuit.outputs = R.output_bits p);
  check "all outputs classical" true
    (List.for_all
       (fun (e : Wire.endpoint) -> e.Wire.ty = Wire.C)
       flat.Circuit.outputs)

let test_repcode_frame_matches_slow () =
  List.iter
    (fun d ->
      let p = { R.distance = d; rounds = d } in
      let run engine =
        R.run_point ~master_seed:17 ~engine ~p ~physical:0.02 ~trials:400 ()
      in
      let fast = run `Frame and slow = run `Slow in
      check "logical errors identical" true
        (fast.R.pt_logical_errors = slow.R.pt_logical_errors);
      check "tripped identical" true (fast.R.pt_tripped = slow.R.pt_tripped);
      check "errored identical" true (fast.R.pt_errored = slow.R.pt_errored);
      check "frame engine carried the trials" true (fast.R.pt_frame_trials = 400))
    [ 3; 5 ]

let test_repcode_sample_outcomes_identical () =
  (* per-trial sampled outputs, not just aggregates, bit for bit *)
  let p = { R.distance = 3; rounds = 3 } in
  let b = R.generate ~p () in
  let cfg = Noise.depolarizing 0.03 in
  let collect engine =
    let out = Array.make 300 None in
    let _ =
      Noise.sample_trials_on
        (module Backend.Clifford)
        ~master_seed:23 ~engine ~trials:300 cfg b []
        ~f:(fun t s -> out.(t) <- Some s)
    in
    out
  in
  check "every sampled trial identical" true (collect `Frame = collect `Slow)

let suite =
  [
    Alcotest.test_case "law: trials and samples engine-invariant" `Quick test_law_trials;
    Alcotest.test_case "law: inject engine-invariant" `Quick test_law_inject;
    Alcotest.test_case "inject: a raising clean run is Errored" `Quick test_inject_clean_raises;
    Alcotest.test_case "corpus: trials bit-identical frame vs slow" `Quick
      test_corpus_trials_bit_identical;
    Alcotest.test_case "fallback: trial campaign names the gate" `Quick
      test_fallback_names_the_gate;
    Alcotest.test_case "fallback: inject campaign names the gate" `Quick
      test_inject_fallback_names_the_gate;
    Alcotest.test_case "repcode: circuit shape" `Quick test_repcode_shape;
    Alcotest.test_case "repcode: frame matches slow" `Quick
      test_repcode_frame_matches_slow;
    Alcotest.test_case "repcode: per-trial samples identical" `Quick
      test_repcode_sample_outcomes_identical;
  ]
