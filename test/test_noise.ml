(* Tests for the noise channels (Quipper_sim.Noise), the fault-injection
   engine (Quipper_sim.Inject) and the fault-site enumeration
   (Quipper.Faultsite): the stack that deliberately breaks circuits and
   checks that assertive termination detects what it claims to. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ
module Sv = Quipper_sim.Statevector
module Noise = Quipper_sim.Noise
module Inject = Quipper_sim.Inject
module Svb = Quipper_sim.Backend.Statevector
module Qdint = Quipper_arith.Qdint
module Rng = Quipper_math.Rng

let check = Alcotest.(check bool)

(* the workhorse target: a 3-bit in-place adder — an arithmetic oracle
   with data wires, a carry ancilla and assertive terminations *)
let adder_shape = Qdata.pair (Qdint.shape 3) (Qdint.shape 3)

let adder_circuit () =
  let b, _ =
    Circ.generate ~in_:adder_shape (fun (x, y) ->
        let* () = Qdint.add_in_place ~x ~y () in
        return (x, y))
  in
  b

let adder_inputs x y = Qdata.bleaves adder_shape (x, y)

(* ------------------------------------------------------------------ *)
(* Noise channels                                                      *)

let test_bit_flip_certain () =
  (* X gate then a certain bit-flip kick: net identity *)
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        let* () = qnot_ q in
        return q)
  in
  let clean = Sv.run_circuit ~seed:1 b [ false ] in
  let out = (List.hd b.Circuit.main.Circuit.outputs).Wire.wire in
  check "clean X flips" true (abs_float (Sv.prob_one clean out -. 1.0) < 1e-9);
  let noisy =
    Noise.run_circuit_on (module Svb) ~seed:1 (Noise.bit_flip 1.0) b [ false ]
  in
  check "noise X flips back" true (abs_float (Sv.prob_one noisy out) < 1e-9)

let test_noise_trips_assertion () =
  (* init |0>, certain bit-flip, assertively terminate at |0>: the
     extended model's check fires under noise *)
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        let* a = qinit_bit false in
        let* () = qterm_bit false a in
        return q)
  in
  match Noise.run_circuit_on (module Svb) ~seed:1 (Noise.bit_flip 1.0) b [ false ] with
  | exception Errors.Error (Errors.Termination_assertion _) -> ()
  | _ -> Alcotest.fail "expected the noisy run to trip the termination assertion"

let test_readout_error_certain () =
  let b, _ = Circ.generate ~in_:Qdata.qubit (fun q -> return q) in
  check "readout 1.0 always lies" true
    (Noise.run_and_measure_on (module Svb) ~seed:1 (Noise.readout 1.0) b [ true ]
    = [ false ]);
  check "readout 0.0 is faithful" true
    (Noise.run_and_measure_on (module Svb) ~seed:1 Noise.none b [ true ] = [ true ])

let prop_noiseless_is_bit_identical =
  (* all-zero probabilities: amplitude arrays equal to the bit, on random
     circuit programs (satellite acceptance: no perturbation at p = 0) *)
  QCheck2.Test.make ~name:"zero-probability noise config is bit-identical"
    ~count:30
    QCheck2.Gen.(pair (Gen.program_gen ~n:4 ()) (list_repeat 4 bool))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let clean = Sv.run_circuit ~seed:3 b inputs in
      let noisy = Noise.run_circuit_on (module Svb) ~seed:3 Noise.none b inputs in
      Sv.amplitudes clean = Sv.amplitudes noisy)

(* ------------------------------------------------------------------ *)
(* Trial runner                                                        *)

let test_trials_clean_all_succeed () =
  let b = adder_circuit () in
  let s =
    Noise.run_trials_on (module Svb) ~master_seed:9 ~trials:10 ~max_failures:0 Noise.none
      b (adder_inputs 3 2) ~expected:(adder_inputs 3 5)
  in
  check "all succeed" true (s.Noise.successes = 10 && s.Noise.attempts = 10)

let test_trials_deterministic () =
  let b = adder_circuit () in
  let run () =
    Noise.run_trials_on (module Svb) ~master_seed:42 ~trials:40 ~max_failures:2
      (Noise.depolarizing 0.02) b (adder_inputs 3 2) ~expected:(adder_inputs 3 5)
  in
  let s1 = run () and s2 = run () in
  check "identical master seed => identical trial outcomes" true (s1 = s2);
  check "outcome classes partition the trials" true
    (s1.Noise.successes + s1.Noise.wrong + s1.Noise.gave_up + s1.Noise.errored
    = s1.Noise.trials);
  let s3 =
    Noise.run_trials_on (module Svb) ~master_seed:43 ~trials:40 ~max_failures:2
      (Noise.depolarizing 0.02) b (adder_inputs 3 2) ~expected:(adder_inputs 3 5)
  in
  check "a different master seed reshuffles the noise" true
    (s3.Noise.outcomes <> s1.Noise.outcomes)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let test_fault_sites_enumerated () =
  let b = adder_circuit () in
  let flat = Circuit.inline b in
  let sites = Faultsite.enumerate b in
  check "many sites" true (List.length sites > Array.length flat.Circuit.gates);
  (* every site points at a real gate (or an input) *)
  check "indices in range" true
    (List.for_all
       (fun (s : Faultsite.site) ->
         s.Faultsite.index >= -1 && s.Faultsite.index < Array.length flat.Circuit.gates)
       sites)

let test_fault_sites_recurse_into_boxes () =
  (* a boxed subroutine's internal gates must contribute sites tagged
     with the box's name *)
  let sub q =
    let* () = hadamard_ q in
    let* () = hadamard_ q in
    return q
  in
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        box "noisy_box" ~in_:Qdata.qubit ~out:Qdata.qubit sub q)
  in
  let sites = Faultsite.enumerate b in
  check "sites inside the box carry its path" true
    (List.exists (fun (s : Faultsite.site) -> s.Faultsite.path = [ "noisy_box" ]) sites)

let test_fault_report_all_classes () =
  let b = adder_circuit () in
  let r = Inject.report_on (module Svb) ~seed:1 b (adder_inputs 5 4) in
  check "faults = sites * 3" true (r.Inject.faults = 3 * r.Inject.sites);
  check "some faults detected" true (r.Inject.detected > 0);
  check "some faults corrupt silently" true (r.Inject.corrupted > 0);
  check "some faults masked" true (r.Inject.masked > 0);
  check "classes partition the faults" true
    (r.Inject.detected + r.Inject.corrupted + r.Inject.masked = r.Inject.faults)

let test_fault_before_term_is_detected () =
  (* the acceptance property: a bit-flipping Pauli (X or Y) landing on a
     wire whose next touching gate is an assertive quantum termination
     MUST be classified Detected — no silent assertion bypass *)
  let b = adder_circuit () in
  let flat = Circuit.inline b in
  let inputs = adder_inputs 5 4 in
  let touches w (g : Gate.t) =
    (not (Gate.is_comment g))
    && List.exists (fun (e : Wire.endpoint) -> e.Wire.wire = w) (Gate.wires g)
  in
  let next_touching (s : Faultsite.site) =
    let rec go j =
      if j >= Array.length flat.Circuit.gates then None
      else if touches s.Faultsite.wire flat.Circuit.gates.(j) then
        Some flat.Circuit.gates.(j)
      else go (j + 1)
    in
    go (s.Faultsite.index + 1)
  in
  let checked = ref 0 in
  List.iter
    (fun (s : Faultsite.site) ->
      match next_touching s with
      | Some (Gate.Term { ty = Wire.Q; _ }) ->
          List.iter
            (fun p ->
              incr checked;
              let o = Inject.run_site_on (module Svb) ~seed:1 b inputs s p in
              if o <> Inject.Detected then
                Alcotest.failf "fault %s at %s escaped the assertion (%s)"
                  (Inject.pauli_name p)
                  (Fmt.str "%a" Faultsite.pp_site s)
                  (Inject.outcome_name o))
            [ Inject.X; Inject.Y ]
      | _ -> ())
    (Faultsite.enumerate b);
  check "at least one pre-termination site exists" true (!checked > 0)

let test_masked_z_on_basis_state () =
  (* a Z fault on a classical-basis circuit is pure phase: masked *)
  let b = adder_circuit () in
  let sites = Faultsite.enumerate b in
  let s = List.hd sites in
  check "input-site Z fault is masked" true
    (Inject.run_site_on (module Svb) ~seed:1 b (adder_inputs 1 2) s Inject.Z
    = Inject.Masked)

let test_errored_trials_survive () =
  (* a backend raising mid-trial (clifford meets a T gate) is recorded
     as Errored per trial, not a crashed campaign *)
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 1 Qdata.qubit) (fun ql ->
        let* _ = Circ.gate_T (List.hd ql) in
        return ql)
  in
  let s =
    Noise.run_trials_on
      (module Quipper_sim.Backend.Clifford)
      ~master_seed:9 ~trials:5 ~max_failures:1 Noise.none b [ false ]
      ~expected:[ false ]
  in
  check "every trial errored" true (s.Noise.errored = 5);
  check "partition still holds" true
    (s.Noise.successes + s.Noise.wrong + s.Noise.gave_up + s.Noise.errored
    = s.Noise.trials)

let prop_domains_invariant =
  (* QUIPPER_DOMAINS must not change per-trial outcomes *)
  QCheck.Test.make ~count:10 ~name:"trial outcomes independent of domain count"
    QCheck.(pair (int_range 0 7) (int_range 0 7))
    (fun (x, y) ->
      let b = adder_circuit () in
      let saved = !Quipper_sim.Kernel.num_domains in
      let run d =
        Quipper_sim.Kernel.num_domains := d;
        Fun.protect
          ~finally:(fun () -> Quipper_sim.Kernel.num_domains := saved)
          (fun () ->
            Noise.run_trials_on
              (module Svb)
              ~master_seed:(x + (8 * y)) ~trials:12 ~max_failures:1
              (Noise.depolarizing 0.03) b (adder_inputs x y)
              ~expected:(adder_inputs x ((x + y) mod 8)))
      in
      run 1 = run 2)

let suite =
  [
    Alcotest.test_case "noise: certain bit flip" `Quick test_bit_flip_certain;
    Alcotest.test_case "noise: trips termination assertion" `Quick
      test_noise_trips_assertion;
    Alcotest.test_case "noise: readout error" `Quick test_readout_error_certain;
    Alcotest.test_case "trials: clean all succeed" `Quick test_trials_clean_all_succeed;
    Alcotest.test_case "trials: deterministic per master seed" `Quick
      test_trials_deterministic;
    Alcotest.test_case "inject: sites enumerated" `Quick test_fault_sites_enumerated;
    Alcotest.test_case "inject: sites recurse into boxes" `Quick
      test_fault_sites_recurse_into_boxes;
    Alcotest.test_case "inject: adder shows all three classes" `Quick
      test_fault_report_all_classes;
    Alcotest.test_case "inject: flips before Term always detected" `Quick
      test_fault_before_term_is_detected;
    Alcotest.test_case "inject: Z on basis state masked" `Quick
      test_masked_z_on_basis_state;
    Alcotest.test_case "trials: errors recorded, campaign survives" `Quick
      test_errored_trials_survive;
  ]

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_noiseless_is_bit_identical;
      QCheck_alcotest.to_alcotest prop_domains_invariant;
    ]
