(* Differential and mechanics tests for the gate-fusion compiler
   ([Quipper_sim.Fuse]).

   Fusion multiplies the same per-gate matrices in a different
   association order, so fused amplitudes are NOT bit-identical to the
   unfused engine — the properties budget a 1e-9 max deviation for the
   float reassociation. Classical observations (measured bits), by
   contrast, must be bit-identical at equal seeds: sampling runs in the
   statevector engine on the flushed state, with the same sequential
   probability reductions and the same RNG stream, and a divergence
   would need a Born probability within reassociation distance
   (~1e-15) of the RNG draw. *)

open Quipper
open Circ
module Gen = Quipper_testgen.Gen
module Backend = Quipper_sim.Backend
module Sv = Quipper_sim.Statevector
module Fuse = Quipper_sim.Fuse

let check = Alcotest.(check bool)
let inputs_gen n = QCheck2.Gen.(list_repeat n bool)

(* max componentwise deviation between two amplitude vectors *)
let max_dev (a : Quipper_math.Cplx.t array) (b : Quipper_math.Cplx.t array) =
  let open Quipper_math in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let e = Cplx.norm (Cplx.sub x b.(i)) in
      if e > !d then d := e)
    a;
  !d

let amp_close eps a b = Array.length a = Array.length b && max_dev a b <= eps

(* ------------------------------------------------------------------ *)
(* Differential property: 200 random circuits                          *)

(* Random programs (superposition gates, negative controls, controlled
   blocks, ancilla compute/uncompute sandwiches — so Init/Term barriers
   land mid-stream) run fused and unfused: amplitudes within 1e-9,
   measured output bits identical. *)
let prop_fused_vs_unfused =
  let n = 5 in
  QCheck2.Test.make
    ~name:"fused vs unfused: amplitudes within 1e-9, bits identical (200)"
    ~count:200
    QCheck2.Gen.(pair (Gen.program_gen ~n ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n ops in
      let sv = Sv.run_circuit ~seed:11 b inputs in
      let fu = Fuse.run_circuit ~seed:11 b inputs in
      amp_close 1e-9 (Sv.amplitudes sv) (Fuse.amplitudes fu)
      && Backend.run_and_measure (module Backend.Statevector) ~seed:11 b inputs
         = Backend.run_and_measure (module Backend.Fused) ~seed:11 b inputs)

(* The streaming path: [Backend.fused_sink] fed by [Circ.run_streaming]
   must land on the same state as the unfused materialized run. *)
let prop_streamed_fused =
  let n = 5 in
  QCheck2.Test.make ~name:"streamed fused simulation matches unfused" ~count:50
    QCheck2.Gen.(pair (Gen.program_gen ~n ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let shape = Qdata.list_of n Qdata.qubit in
      let b = Gen.circuit_of_program ~n ops in
      let sv = Sv.run_circuit ~seed:3 b inputs in
      let obs, _ =
        Circ.run_streaming ~in_:shape (Gen.program_fun ops)
          (Backend.fused_sink ~seed:3 ~inputs ())
      in
      match obs with
      | Backend.Obs_amplitudes a -> amp_close 1e-9 a (Sv.amplitudes sv)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* The box-compilation cache                                           *)

(* A hierarchical program over 4 qubits: a random 2-qubit body boxed
   once, then called plainly, under a quantum control, inverted (via
   the with_computed sandwich) and plainly again — so the cache serves
   forward, controlled and inverse calls of the same compilation. *)
let boxed_fun ops ql =
  match ql with
  | [ a; b; c; d ] ->
      let shape2 = Qdata.list_of 2 Qdata.qubit in
      let call xs = box "body" ~in_:shape2 ~out:shape2 (Gen.program_fun ops) xs in
      let* ab = call [ a; b ] in
      let a, b = (List.nth ab 0, List.nth ab 1) in
      let* cd = with_controls [ ctl a ] (call [ c; d ]) in
      let c, d = (List.nth cd 0, List.nth cd 1) in
      let* b =
        with_computed (call [ c; d ]) (fun cd' ->
            let* () = cnot ~control:(List.hd cd') ~target:b in
            return b)
      in
      let* ab = call [ a; b ] in
      let a, b = (List.nth ab 0, List.nth ab 1) in
      return [ a; b; c; d ]
  | _ -> assert false

let prop_boxed_cache =
  QCheck2.Test.make
    ~name:"box cache: forward/controlled/inverse calls replay compiled blocks"
    ~count:60
    QCheck2.Gen.(pair (Gen.program_gen ~n:2 ~max_ops:8 ()) (inputs_gen 4))
    (fun (ops, inputs) ->
      let shape = Qdata.list_of 4 Qdata.qubit in
      let b, _ = Circ.generate ~in_:shape (boxed_fun ops) in
      let sv = Sv.run_circuit ~seed:5 b inputs in
      let reference = Sv.amplitudes sv in
      (* cached replay *)
      let fu = Fuse.run_circuit ~seed:5 b inputs in
      let st = Fuse.stats fu in
      (* streaming: definitions arrive via on_subroutine_exit *)
      let obs, _ =
        Circ.run_streaming ~in_:shape (boxed_fun ops)
          (Backend.fused_sink ~seed:5 ~inputs ())
      in
      amp_close 1e-9 reference (Fuse.amplitudes fu)
      && (match obs with
         | Backend.Obs_amplitudes a -> amp_close 1e-9 reference a
         | _ -> false)
      (* 5 call gates (the with_computed sandwich emits the call and its
         inverse) served by at most 2 compilations (forward + inverse) *)
      && st.Fuse.calls_replayed = 5
      && st.Fuse.boxes_compiled >= 1
      && st.Fuse.boxes_compiled <= 2)

(* ------------------------------------------------------------------ *)
(* Fusion mechanics                                                    *)

(* A purely diagonal run over 6 wires — wider than the dense window
   (4) but inside the diagonal window (8) — must collapse into exactly
   one fused block, and still match the unfused engine. *)
let test_diag_run_one_block () =
  let shape = Qdata.list_of 6 Qdata.qubit in
  let prog ql =
    match ql with
    | [ a; b; c; d; e; f ] ->
        let* _ = gate_T a in
        let* _ = gate_S b in
        let* _ = gate_Z c in
        let* () = rot_Z 0.3 d in
        let* () = gate_R 3 e in
        let* () =
          with_controls [ ctl e ]
            (let* _ = gate_Z f in
             return ())
        in
        let* () = rot_expZt 0.7 a in
        return ql
    | _ -> assert false
  in
  let input = [ true; false; true; true; false; true ] in
  let svst, _ = Sv.run_fun ~in_:shape input prog in
  let fust, _ = Fuse.run_fun ~in_:shape input prog in
  check "diagonal run matches unfused" true
    (amp_close 1e-9 (Sv.amplitudes svst) (Fuse.amplitudes fust));
  let st = Fuse.stats fust in
  check "one fused block" true (st.Fuse.blocks_applied = 1);
  check "all 7 gates fused" true (st.Fuse.gates_fused = 7);
  check "only the 6 Inits went through per-gate kernels" true
    (st.Fuse.singles_applied = 6)

(* A dense run long enough to amortize the 2^k kernel and confined to 2
   wires fuses to one block; a short run spread over more wires than
   the window is costed out of fusion entirely (the gates replay
   through their specialised kernels) yet still simulates correctly. *)
let test_dense_window () =
  let shape = Qdata.list_of 5 Qdata.qubit in
  let narrow ql =
    match ql with
    | a :: b :: _ ->
        let rec go n a b =
          if n = 0 then return ql
          else
            let* a = hadamard a in
            let* _ = gate_T a in
            let* () = cnot ~control:a ~target:b in
            let* b = hadamard b in
            go (n - 1) a b
        in
        go 4 a b
    | _ -> assert false
  in
  let wide ql =
    match ql with
    | [ a; b; c; d; e ] ->
        let* a = hadamard a in
        let* b = hadamard b in
        let* _ = hadamard c in
        let* _ = hadamard d in
        let* _ = hadamard e in
        let* () = cnot ~control:a ~target:b in
        return ql
    | _ -> assert false
  in
  let input = [ true; false; false; true; false ] in
  let svn, _ = Sv.run_fun ~in_:shape input narrow in
  let fn, _ = Fuse.run_fun ~in_:shape input narrow in
  check "narrow dense run matches unfused" true
    (amp_close 1e-9 (Sv.amplitudes svn) (Fuse.amplitudes fn));
  check "narrow dense run is one block" true
    ((Fuse.stats fn).Fuse.blocks_applied = 1);
  check "all 16 narrow gates fused" true ((Fuse.stats fn).Fuse.gates_fused = 16);
  let svw, _ = Sv.run_fun ~in_:shape input wide in
  let fw, _ = Fuse.run_fun ~in_:shape input wide in
  check "wide run matches unfused" true
    (amp_close 1e-9 (Sv.amplitudes svw) (Fuse.amplitudes fw));
  check "short wide run is costed out of fusion" true
    ((Fuse.stats fw).Fuse.blocks_applied = 0)

(* A block that ends up holding a single gate must go through the
   specialised per-gate kernels, not a dense 2^k matrix. *)
let test_single_gate_fallback () =
  let shape = Qdata.list_of 2 Qdata.qubit in
  let prog ql =
    match ql with
    | [ a; _ ] ->
        let* _ = hadamard a in
        return ql
    | _ -> assert false
  in
  let fu, _ = Fuse.run_fun ~in_:shape [ false; false ] prog in
  let st = Fuse.stats fu in
  check "no fused block for a lone gate" true (st.Fuse.blocks_applied = 0);
  check "the gate (and the 2 Inits) used per-gate kernels" true
    (st.Fuse.singles_applied = 3)

(* Sampling: measured bits must be identical at equal seeds even on
   genuinely probabilistic outcomes (H then measure), across a range of
   seeds. Deterministic: if it passes once it passes forever. *)
let test_sampling_identical () =
  let b =
    Gen.circuit_of_program ~n:3
      [ Gen.H 0; Gen.CNot (0, 1); Gen.T 1; Gen.H 2; Gen.S 2; Gen.CNot (2, 0) ]
  in
  let inputs = [ false; true; false ] in
  for seed = 0 to 19 do
    check "fused sampling matches unfused at equal seed" true
      (Backend.run_and_measure (module Backend.Statevector) ~seed b inputs
      = Backend.run_and_measure (module Backend.Fused) ~seed b inputs)
  done

(* Two boxes, one fusing to a 2-wire dense block and one to a 3-wire
   diagonal block, called on 9 qubits under controls of mixed polarity,
   with the bodies on bit 0, the top bit and bits in between: the fused
   kernels walk the control subspace, which chunks split at 1, 2 and 3
   domains with the fan-out threshold at 16 amplitudes. The fused state
   must match the unfused engine, and be bit-identical across domain
   counts. *)
let controlled_box_call ql =
  match ql with
  | [ q0; q1; q2; q3; q4; q5; q6; q7; q8 ] ->
      let* () = iterm hadamard_ ql in
      let shape2 = Qdata.list_of 2 Qdata.qubit in
      let shape3 = Qdata.list_of 3 Qdata.qubit in
      let dense xs =
        match xs with
        | [ a; b ] ->
            let rec go n a b =
              if n = 0 then return [ a; b ]
              else
                let* a = hadamard a in
                let* _ = gate_T a in
                let* () = cnot ~control:a ~target:b in
                let* b = hadamard b in
                go (n - 1) a b
            in
            go 4 a b
        | _ -> assert false
      in
      let diag xs =
        match xs with
        | [ a; b; c ] ->
            let* _ = gate_T a in
            let* _ = gate_S b in
            let* _ = gate_Z c in
            let* () = rot_Z 0.3 a in
            let* _ = with_controls [ ctl a ] (gate_Z c) in
            let* () = rot_expZt 0.7 b in
            return xs
        | _ -> assert false
      in
      let* d =
        with_controls
          [ ctl q1; ctl_neg q3; ctl q5; ctl_neg q7 ]
          (box "dense" ~in_:shape2 ~out:shape2 dense [ q0; q8 ])
      in
      let* g =
        with_controls [ ctl_neg q2; ctl q6 ]
          (box "diag" ~in_:shape3 ~out:shape3 diag
             [ List.nth d 0; q4; List.nth d 1 ])
      in
      return (g @ [ q1; q2; q3; q5; q6; q7 ])
  | _ -> assert false

let test_controlled_box_call () =
  let module K = Quipper_sim.Kernel in
  let shape = Qdata.list_of 9 Qdata.qubit in
  let b, _ = Circ.generate ~in_:shape controlled_box_call in
  let inputs = [ false; true; false; false; false; true; false; false; false ] in
  let reference = Sv.amplitudes (Sv.run_circuit ~seed:1 b inputs) in
  let saved_d = !K.num_domains and saved_t = !K.threshold in
  Fun.protect
    ~finally:(fun () ->
      K.num_domains := saved_d;
      K.threshold := saved_t)
    (fun () ->
      K.threshold := 16;
      let runs =
        List.map
          (fun d ->
            K.num_domains := d;
            let fu = Fuse.run_circuit ~seed:1 b inputs in
            check
              (Printf.sprintf "controlled call matches unfused at %d domains" d)
              true
              (amp_close 1e-9 reference (Fuse.amplitudes fu));
            check "the call replays fused blocks" true
              ((Fuse.stats fu).Fuse.blocks_applied >= 2);
            Fuse.amplitudes fu)
          [ 1; 2; 3 ]
      in
      check "fused amplitudes identical across domain counts" true
        (List.for_all (( = ) (List.hd runs)) runs))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_fused_vs_unfused;
    QCheck_alcotest.to_alcotest prop_streamed_fused;
    QCheck_alcotest.to_alcotest prop_boxed_cache;
    Alcotest.test_case "diagonal run fuses to one block" `Quick
      test_diag_run_one_block;
    Alcotest.test_case "dense fusion window" `Quick test_dense_window;
    Alcotest.test_case "single-gate fallback" `Quick test_single_gate_fallback;
    Alcotest.test_case "sampling bit-identical across seeds" `Quick
      test_sampling_identical;
    Alcotest.test_case "controlled box call: fused kernels under controls"
      `Quick test_controlled_box_call;
  ]
