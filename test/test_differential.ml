(* The differential-simulation harness: the same random circuits run
   through every simulator backend whose gate set supports the fragment,
   failing on any divergence. Written once over the unified
   {!Quipper_sim.Backend} contract: each property fixes an oracle (the
   classical simulation, or the identity for roundtrip circuits) and
   folds a [(module Backend.S)] list over it. Each property runs 40
   random circuits, so one [dune runtest] crosses well over 100 circuits
   across the backend pairs. *)

open Quipper
module Gen = Quipper_testgen.Gen
module Backend = Quipper_sim.Backend
module Cs = Quipper_sim.Classical

let inputs_gen n = QCheck2.Gen.(list_repeat n bool)

(* Run [b] on every backend in [backends] (same seed — on these
   deterministic-outcome circuits the seed only fixes the sampling
   stream) and check the measured outputs against [expected]. *)
let agree ~seed backends (b : Circuit.b) inputs expected =
  List.for_all
    (fun (module B : Backend.S) ->
      Backend.run_and_measure (module B) ~seed b inputs = expected)
    backends

(* classical fragment: on basis-state-preserving circuits, every backend
   that accepts the gates (Toffoli rules out the stabilizer one) must
   land exactly on the boolean simulator's output basis state *)
let prop_classical_vs_statevector =
  let n = 5 in
  QCheck2.Test.make ~name:"differential: classical vs statevector" ~count:40
    QCheck2.Gen.(pair (Gen.classical_program_gen ~n ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n ops in
      let expected = Backend.run_and_measure (module Backend.Classical) b inputs in
      agree ~seed:7
        [ (module Backend.Classical); (module Backend.Statevector) ]
        b inputs expected)

(* permutation/parity fragment (X, CNOT, swap): the intersection of all
   three gate sets — every backend must agree with the boolean run *)
let prop_classical_vs_clifford =
  let n = 5 in
  QCheck2.Test.make ~name:"differential: classical vs clifford" ~count:40
    QCheck2.Gen.(pair (Gen.permutation_program_gen ~n ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n ops in
      let expected = Backend.run_and_measure (module Backend.Classical) b inputs in
      agree ~seed:5 Backend.all b inputs expected)

(* random Clifford programs followed by their library-generated reverse
   must map every basis input to itself on the quantum backends — a
   deterministic observable that exercises superposition-generating
   gates (H, S) on both sides *)
let prop_statevector_vs_clifford_roundtrip =
  let n = 4 in
  QCheck2.Test.make ~name:"differential: statevector vs clifford (roundtrips)"
    ~count:40
    QCheck2.Gen.(pair (Gen.clifford_program_gen ~n ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let b = Gen.roundtrip_circuit_of_program ~n ops in
      agree ~seed:11
        [ (module Backend.Statevector); (module Backend.Clifford) ]
        b inputs inputs)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_classical_vs_statevector;
      prop_classical_vs_clifford;
      prop_statevector_vs_clifford_roundtrip;
    ]
