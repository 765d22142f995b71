(* Tests for the three simulators (paper 4.4.5's run functions) and their
   agreement with each other, plus dynamic lifting (the QRAM model). *)

open Quipper
open Circ
module Sv = Quipper_sim.Statevector
module Cl = Quipper_sim.Clifford
module Cs = Quipper_sim.Classical

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Statevector basics                                                  *)

let test_sv_hadamard_probability () =
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> hadamard q)
  in
  checkf "P(1) = 1/2" 0.5 (Sv.prob_one st (Wire.qubit_wire q))

let test_sv_interference () =
  (* HH = I: deterministic zero *)
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> hadamard q >>= hadamard)
  in
  checkf "P(1) = 0" 0.0 (Sv.prob_one st (Wire.qubit_wire q))

let test_sv_bell_correlation () =
  for seed = 1 to 30 do
    let st, (a, b) =
      Sv.run_fun ~seed ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (false, false)
        (fun (a, b) ->
          let* a = hadamard a in
          let* () = cnot ~control:a ~target:b in
          return (a, b))
    in
    let va, vb = Sv.measure_and_read st (Qdata.pair Qdata.qubit Qdata.qubit) (a, b) in
    check "correlated" true (va = vb)
  done

let test_sv_measurement_statistics () =
  (* measuring |+> ~1000 times: between 400 and 600 ones *)
  let ones = ref 0 in
  for seed = 1 to 1000 do
    let st, q = Sv.run_fun ~seed ~in_:Qdata.qubit false (fun q -> hadamard q) in
    if Sv.measure st (Wire.qubit_wire q) then incr ones
  done;
  check "unbiased" true (!ones > 400 && !ones < 600)

let test_sv_term_assertion_pass () =
  let _st, () =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit true (fun q ->
        with_ancilla (fun a ->
            let* () = cnot ~control:q ~target:a in
            let* () = cnot ~control:q ~target:a in
            return ()))
  in
  check "scoped ancilla ok" true true

let test_sv_term_assertion_fail () =
  match
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit true (fun q ->
        with_ancilla (fun a -> cnot ~control:q ~target:a))
  with
  | exception Errors.Error (Errors.Termination_assertion _) -> ()
  | _ -> Alcotest.fail "expected termination assertion failure"

let test_sv_term_superposition_fail () =
  match
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* q = hadamard q in
        qterm_bit false q)
  with
  | exception Errors.Error (Errors.Termination_assertion _) -> ()
  | _ -> Alcotest.fail "expected termination assertion failure"

let test_sv_global_phase_invisible () =
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* q = hadamard q in
        let* () = global_phase 1.234 in
        hadamard q)
  in
  checkf "still deterministic" 0.0 (Sv.prob_one st (Wire.qubit_wire q))

let test_sv_controlled_phase_visible () =
  (* H; controlled-phase pi (= Z); H maps |0> to |1> *)
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* q = hadamard q in
        let* () = (fun c -> Circ.emit c (Gate.Phase { angle = Float.pi; controls = [ Circ.ctl q ] })) in
        hadamard q)
  in
  checkf "P(1) = 1" 1.0 (Sv.prob_one st (Wire.qubit_wire q))

let test_sv_w_gate () =
  (* W on |01> gives (|01>+|10>)/sqrt2: both qubits 50/50 but correlated
     to odd parity *)
  let st, (a, b) =
    Sv.run_fun ~seed:5 ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (false, true)
      (fun (a, b) ->
        let* () = gate_W a b in
        return (a, b))
  in
  let va, vb = Sv.measure_and_read st (Qdata.pair Qdata.qubit Qdata.qubit) (a, b) in
  check "odd parity preserved" true (va <> vb)

let test_sv_rotation_angles () =
  (* Rx(pi) = -iX: flips deterministically *)
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* () = rot_X Float.pi q in
        return q)
  in
  checkf "Rx(pi) flips" 1.0 (Sv.prob_one st (Wire.qubit_wire q))

let test_sv_capacity_guard () =
  (* one qubit past [max_qubits] must raise Simulation, not allocate *)
  let n = Sv.max_qubits + 1 in
  let b, _ = Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun ql -> return ql) in
  match Sv.run_circuit ~seed:1 b (List.init n (fun _ -> false)) with
  | exception Errors.Error (Errors.Simulation msg) ->
      check "message names the limit" true
        (Astring_contains.contains msg (string_of_int Sv.max_qubits))
  | _ -> Alcotest.fail "expected the capacity guard to fire"

let test_sv_inverse_gates () =
  (* T then T* is identity; S* S also *)
  let st, q =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* q = hadamard q in
        let* q = gate_T q in
        let* () = gate_T_inv q in
        let* q = gate_S q in
        let* () = gate_S_inv q in
        hadamard q)
  in
  checkf "identity" 0.0 (Sv.prob_one st (Wire.qubit_wire q))

(* ------------------------------------------------------------------ *)
(* Classical simulator                                                 *)

let test_classical_rejects_hadamard () =
  match
    Cs.run_oracle ~in_:Qdata.qubit ~out:Qdata.qubit false (fun q -> hadamard q)
  with
  | exception Errors.Error (Errors.Simulation _) -> ()
  | _ -> Alcotest.fail "expected simulation error"

let test_classical_toffoli_table () =
  let shape = Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit in
  for v = 0 to 7 do
    let a = v land 1 = 1 and b = v land 2 = 2 and c = v land 4 = 4 in
    let a', b', c' =
      Cs.run_oracle ~in_:shape ~out:shape (a, b, c) (fun (a, b, c) ->
          let* () = toffoli ~c1:a ~c2:b ~target:c in
          return (a, b, c))
    in
    check "toffoli truth table" true (a' = a && b' = b && c' = (c <> (a && b)))
  done

let test_classical_negative_controls () =
  let shape = Qdata.pair Qdata.qubit Qdata.qubit in
  List.iter
    (fun (a, b) ->
      let _, b' =
        Cs.run_oracle ~in_:shape ~out:shape (a, b) (fun (a, b) ->
            let* () = qnot_ b |> controlled [ ctl_neg a ] in
            return (a, b))
      in
      check "negative control" true (b' = (b <> not a)))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_classical_swap () =
  let shape = Qdata.pair Qdata.qubit Qdata.qubit in
  let a', b' =
    Cs.run_oracle ~in_:shape ~out:shape (true, false) (fun (a, b) ->
        let* () = swap a b in
        return (a, b))
  in
  check "swapped" true (a' = false && b' = true)

let test_classical_cgates () =
  let st, r =
    Cs.run_fun ~in_:Qdata.unit () (fun () ->
        let* a = cinit_bit true in
        let* b = cinit_bit false in
        let* x = cgate_xor [ a; b ] in
        let* y = cgate_and [ a; b ] in
        let* o = cgate_or [ a; b ] in
        let* n = cgate_not b in
        return (x, (y, (o, n))))
  in
  let x, (y, (o, n)) =
    Cs.measure_and_read st
      (Qdata.pair Qdata.bit (Qdata.pair Qdata.bit (Qdata.pair Qdata.bit Qdata.bit))) r
  in
  check "xor" true x;
  check "and" false y;
  check "or" true o;
  check "not" true n

(* ------------------------------------------------------------------ *)
(* Clifford simulator                                                  *)

let test_clifford_bell () =
  for seed = 1 to 30 do
    let st, (a, b) =
      Cl.run_fun ~seed ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (false, false)
        (fun (a, b) ->
          let* a = hadamard a in
          let* () = cnot ~control:a ~target:b in
          return (a, b))
    in
    let va, vb = Cl.measure_and_read st (Qdata.pair Qdata.qubit Qdata.qubit) (a, b) in
    check "clifford bell correlation" true (va = vb)
  done

let test_clifford_deterministic () =
  (* X|0> measures 1 deterministically; HH|0> measures 0 *)
  let st, q =
    Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> gate_X q)
  in
  let v = Cl.measure_and_read st Qdata.qubit q in
  check "X flips" true v;
  let st, q =
    Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> hadamard q >>= hadamard)
  in
  check "HH = I" false (Cl.measure_and_read st Qdata.qubit q)

let test_clifford_rejects_t () =
  match Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> gate_T q) with
  | exception Errors.Error (Errors.Simulation _) -> ()
  | _ -> Alcotest.fail "expected simulation error on T"

let test_clifford_rejection_names_gate_and_wire () =
  (* the rejection message must name the offending gate and its wire *)
  (match Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q -> gate_T q) with
  | exception Errors.Error (Errors.Simulation msg) ->
      check "names T and its wire" true (Astring_contains.contains msg "T on wire 0")
  | _ -> Alcotest.fail "expected rejection");
  match
    Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* () = rot_X 0.3 q in
        return q)
  with
  | exception Errors.Error (Errors.Simulation msg) ->
      check "names Rx and its wire" true (Astring_contains.contains msg "Rx on wire 0")
  | _ -> Alcotest.fail "expected rejection"

let test_clifford_ghz () =
  for seed = 1 to 20 do
    let shape = Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit in
    let st, (a, b, c) =
      Cl.run_fun ~seed ~in_:shape (false, false, false) (fun (a, b, c) ->
          let* a = hadamard a in
          let* () = cnot ~control:a ~target:b in
          let* () = cnot ~control:b ~target:c in
          return (a, b, c))
    in
    let va, vb, vc = Cl.measure_and_read st shape (a, b, c) in
    check "GHZ correlation" true (va = vb && vb = vc)
  done

let test_clifford_term_assertions () =
  (* valid scoped ancilla passes, superposed termination fails *)
  let _ =
    Cl.run_fun ~seed:1 ~in_:Qdata.qubit true (fun q ->
        with_ancilla (fun a ->
            let* () = cnot ~control:q ~target:a in
            let* () = cnot ~control:q ~target:a in
            return ()))
  in
  (match
     Cl.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
         let* q = hadamard q in
         qterm_bit false q)
   with
  | exception Errors.Error (Errors.Termination_assertion _) -> ()
  | _ -> Alcotest.fail "expected assertion failure");
  check "ok" true true

let test_clifford_vs_statevector_deterministic () =
  (* random Clifford programs, then their inverse: both simulators must
     deterministically measure all zeros *)
  let progs =
    [
      (fun qs ->
        let open Circ in
        let qs = Array.of_list qs in
        let* () = hadamard_ qs.(0) in
        let* () = cnot ~control:qs.(0) ~target:qs.(1) in
        let* _ = gate_S qs.(1) in
        let* () = swap qs.(0) qs.(2) in
        let* _ = gate_V qs.(2) in
        return (Array.to_list qs));
    ]
  in
  List.iter
    (fun f ->
      let w = Qdata.list_of 3 Qdata.qubit in
      let roundtrip qs =
        let* qs = f qs in
        reverse_simple w f qs
      in
      let st, qs = Sv.run_fun ~seed:3 ~in_:w [ false; false; false ] roundtrip in
      check "sv roundtrip zero" true
        (Sv.measure_and_read st w qs = [ false; false; false ]);
      let st, qs = Cl.run_fun ~seed:3 ~in_:w [ false; false; false ] roundtrip in
      check "clifford roundtrip zero" true
        (Cl.measure_and_read st w qs = [ false; false; false ]))
    progs

(* ------------------------------------------------------------------ *)
(* Dynamic lifting / QRAM                                              *)

let test_dynamic_lifting_value () =
  let _, v =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit true (fun q ->
        let* m = measure_qubit q in
        dynamic_lift m)
  in
  check "lifted true" true v

let test_dynamic_lifting_unavailable () =
  match
    Circ.generate ~in_:Qdata.qubit (fun q ->
        let* m = measure_qubit q in
        dynamic_lift m)
  with
  | exception Errors.Error Errors.Dynamic_lifting_unavailable -> ()
  | _ -> Alcotest.fail "expected dynamic-lifting error under plain generation"

let test_dynamic_lifting_steers_generation () =
  (* the generated gate sequence depends on the measured outcome *)
  let f () =
    let* q = qinit_bit false in
    let* q = hadamard q in
    let* m = measure_qubit q in
    let* v = dynamic_lift m in
    let* extra = qinit_bit false in
    let* () = if v then qnot_ extra else return () in
    let* e = measure_qubit extra in
    dynamic_lift e
  in
  (* whenever the coin gives 1, the conditional X fires and [extra] reads 1 *)
  for seed = 1 to 20 do
    let _, e = Sv.run_fun ~seed ~in_:Qdata.unit () (fun () -> f ()) in
    (* e = coin outcome: either way the circuit was consistent *)
    ignore e
  done;
  check "ok" true true

let suite =
  [
    Alcotest.test_case "sv: hadamard p=1/2" `Quick test_sv_hadamard_probability;
    Alcotest.test_case "sv: interference" `Quick test_sv_interference;
    Alcotest.test_case "sv: bell correlations" `Quick test_sv_bell_correlation;
    Alcotest.test_case "sv: measurement statistics" `Slow test_sv_measurement_statistics;
    Alcotest.test_case "sv: scoped ancilla passes" `Quick test_sv_term_assertion_pass;
    Alcotest.test_case "sv: wrong uncompute caught" `Quick test_sv_term_assertion_fail;
    Alcotest.test_case "sv: superposed term caught" `Quick test_sv_term_superposition_fail;
    Alcotest.test_case "sv: global phase invisible" `Quick test_sv_global_phase_invisible;
    Alcotest.test_case "sv: controlled phase visible" `Quick test_sv_controlled_phase_visible;
    Alcotest.test_case "sv: W gate" `Quick test_sv_w_gate;
    Alcotest.test_case "sv: rotations" `Quick test_sv_rotation_angles;
    Alcotest.test_case "sv: capacity guard" `Quick test_sv_capacity_guard;
    Alcotest.test_case "sv: inverse gates" `Quick test_sv_inverse_gates;
    Alcotest.test_case "classical: rejects H" `Quick test_classical_rejects_hadamard;
    Alcotest.test_case "classical: toffoli table" `Quick test_classical_toffoli_table;
    Alcotest.test_case "classical: negative controls" `Quick test_classical_negative_controls;
    Alcotest.test_case "classical: swap" `Quick test_classical_swap;
    Alcotest.test_case "classical: logic gates" `Quick test_classical_cgates;
    Alcotest.test_case "clifford: bell" `Quick test_clifford_bell;
    Alcotest.test_case "clifford: deterministic gates" `Quick test_clifford_deterministic;
    Alcotest.test_case "clifford: rejects T" `Quick test_clifford_rejects_t;
    Alcotest.test_case "clifford: rejection names gate and wire" `Quick
      test_clifford_rejection_names_gate_and_wire;
    Alcotest.test_case "clifford: GHZ" `Quick test_clifford_ghz;
    Alcotest.test_case "clifford: assertions" `Quick test_clifford_term_assertions;
    Alcotest.test_case "clifford vs sv roundtrips" `Quick test_clifford_vs_statevector_deterministic;
    Alcotest.test_case "dynamic lifting: value" `Quick test_dynamic_lifting_value;
    Alcotest.test_case "dynamic lifting: unavailable" `Quick test_dynamic_lifting_unavailable;
    Alcotest.test_case "dynamic lifting: steering" `Quick test_dynamic_lifting_steers_generation;
  ]

(* randomized Clifford cross-check: for random Clifford-only programs C,
   running C then its reverse must deterministically measure all-zeros in
   BOTH simulators — exercising the tableau against the dense simulator on
   a wide family of states *)
let clifford_op_gen n =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  frequency
    [
      (3, idx >|= fun i -> `H i);
      (2, idx >|= fun i -> `S i);
      (2, idx >|= fun i -> `X i);
      (2, idx >|= fun i -> `V i);
      (3, pair idx idx >|= fun (a, b) -> `CNot (a, b));
      (1, pair idx idx >|= fun (a, b) -> `Swap (a, b));
    ]

let interp_clifford qs op =
  let open Circ in
  let n = Array.length qs in
  match op with
  | `H i -> hadamard_ qs.(i mod n)
  | `S i ->
      let* _ = gate_S qs.(i mod n) in
      return ()
  | `X i -> qnot_ qs.(i mod n)
  | `V i ->
      let* _ = gate_V qs.(i mod n) in
      return ()
  | `CNot (a, b) ->
      let a = a mod n and b = b mod n in
      if a <> b then cnot ~control:qs.(a) ~target:qs.(b) else return ()
  | `Swap (a, b) ->
      let a = a mod n and b = b mod n in
      if a <> b then swap qs.(a) qs.(b) else return ()

let prop_clifford_cross_check =
  QCheck2.Test.make ~name:"random Clifford roundtrips agree across simulators"
    ~count:60
    QCheck2.Gen.(list_size (int_range 1 25) (clifford_op_gen 4))
    (fun ops ->
      let open Circ in
      let w = Qdata.list_of 4 Qdata.qubit in
      let prog qs =
        let arr = Array.of_list qs in
        let* () = iterm (interp_clifford arr) ops in
        return (Array.to_list arr)
      in
      let roundtrip qs =
        let* qs = prog qs in
        reverse_simple w prog qs
      in
      let zeros = [ false; false; false; false ] in
      let st, qs = Sv.run_fun ~seed:11 ~in_:w zeros roundtrip in
      let sv_ok = Sv.measure_and_read st w qs = zeros in
      let st, qs = Cl.run_fun ~seed:11 ~in_:w zeros roundtrip in
      let cl_ok = Cl.measure_and_read st w qs = zeros in
      sv_ok && cl_ok)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_clifford_cross_check ]

(* ------------------------------------------------------------------ *)
(* par_range edge cases                                                *)

(* The kernel partitioner must visit every index in [0, n) exactly once
   whatever the relation of [n] to the domain count and threshold: n
   below the threshold (sequential path), exactly at it (first parallel
   n), not divisible by the domain count (main domain takes the
   remainder), and smaller than the domain count (empty worker
   chunks). Runs with [num_domains = 2] forced, restoring the globals
   afterwards. *)
let test_par_range_edges () =
  let module K = Quipper_sim.Kernel in
  let saved_d = !K.num_domains and saved_t = !K.threshold in
  Fun.protect
    ~finally:(fun () ->
      K.num_domains := saved_d;
      K.threshold := saved_t)
    (fun () ->
      K.num_domains := 2;
      K.threshold := 4;
      let covered_once n =
        let hits = Array.make (max n 1) 0 in
        K.par_range n (fun lo hi ->
            for i = lo to hi - 1 do
              hits.(i) <- hits.(i) + 1
            done);
        Array.for_all (fun c -> c = 1) (Array.sub hits 0 n)
      in
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "par_range covers [0, %d) exactly once" n)
            true (covered_once n))
        [ 1; 2; 3; 4; 5; 7; 8; 16; 31 ];
      (* n = 0: no index may be touched *)
      let touched = ref false in
      K.par_range 0 (fun lo hi -> if hi > lo then touched := true);
      Alcotest.(check bool) "par_range 0 touches nothing" false !touched;
      (* n smaller than the domain count: workers get empty chunks *)
      K.num_domains := 8;
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "par_range covers [0, %d) with 8 domains" n)
            true (covered_once n))
        [ 4; 5; 7 ];
      (* the split is judged on amplitudes touched, [n * touch] *)
      K.num_domains := 2;
      let calls n touch =
        let c = ref 0 in
        K.par_range ~touch n (fun _ _ -> incr c);
        !c
      in
      Alcotest.(check int) "2 indices x 1 amplitude < 4: one call" 1 (calls 2 1);
      Alcotest.(check int) "2 indices x 2 amplitudes = 4: split" 2 (calls 2 2);
      Alcotest.(check int) "1 index x 4 amplitudes: split" 2 (calls 1 4))

(* One fan-out rule for every kernel, at the default threshold (2^19
   amplitudes) and 2 domains on a 20-qubit state: a 9-control X touches
   2^11 amplitudes and stays sequential; H, W and uncontrolled gates
   touch at least 2^19 and fan out. Counted through [Pool.runs]. *)
let test_fan_out_rule () =
  let module K = Quipper_sim.Kernel in
  let module Pool = Quipper_sim.Pool in
  let saved_d = !K.num_domains and saved_t = !K.threshold in
  Fun.protect
    ~finally:(fun () ->
      K.num_domains := saved_d;
      K.threshold := saved_t)
    (fun () ->
      K.num_domains := 2;
      K.threshold := 1 lsl 19;
      let size = 1 lsl 20 in
      let re = Array.make size 0.0 and im = Array.make size 0.0 in
      re.(0) <- 1.0;
      let fans what k =
        let before = Pool.runs () in
        k ();
        Alcotest.(check bool) what true (Pool.runs () > before)
      in
      let sequential what k =
        let before = Pool.runs () in
        k ();
        Alcotest.(check int) what before (Pool.runs ())
      in
      let c9 = 0b1111111110 and bit = 1 lsl 19 in
      sequential "9-control X stays sequential" (fun () ->
          K.kx ~re ~im ~size ~bit ~cmask:c9 ~cwant:c9);
      fans "H fans out" (fun () -> K.kh ~re ~im ~size ~bit:1 ~cmask:0 ~cwant:0);
      fans "W fans out" (fun () ->
          K.kw ~re ~im ~size ~ba:bit ~bb:1 ~cmask:0 ~cwant:0);
      fans "X fans out" (fun () -> K.kx ~re ~im ~size ~bit ~cmask:0 ~cwant:0);
      fans "T fans out" (fun () ->
          K.kdiag ~re ~im ~size ~bit ~cmask:0 ~cwant:0 ~d0_re:1.0 ~d0_im:0.0
            ~d1_re:0.6 ~d1_im:0.8);
      fans "phase fans out" (fun () ->
          K.kphase ~re ~im ~size ~cmask:0 ~cwant:0 ~angle:0.5))

(* Junk in a tuning variable stops the program with an error naming the
   variable, rather than silently running the default. Each variable is
   set in this process and restored (blank reads as unset). *)
let test_tuning_variables () =
  let module K = Quipper_sim.Kernel in
  let module Engine = Quipper_sim.Engine in
  let with_env name value f =
    let saved = Sys.getenv_opt name in
    Unix.putenv name value;
    Fun.protect
      ~finally:(fun () -> Unix.putenv name (Option.value saved ~default:""))
      f
  in
  let raises name value expected f =
    with_env name value (fun () ->
        Alcotest.check_raises (name ^ "=" ^ value)
          (Errors.Error (Errors.Invalid expected))
          (fun () -> ignore (f ())))
  in
  raises "QUIPPER_DOMAINS" "abc"
    "QUIPPER_DOMAINS=\"abc\": expected a positive integer" (fun () ->
      K.env "QUIPPER_DOMAINS" K.positive_int);
  raises "QUIPPER_PAR_THRESHOLD" "-1"
    "QUIPPER_PAR_THRESHOLD=\"-1\": expected a positive integer" (fun () ->
      K.env "QUIPPER_PAR_THRESHOLD" K.positive_int);
  raises "QUIPPER_ENGINE" "bogus"
    "QUIPPER_ENGINE=\"bogus\": unknown engine \"bogus\" (expected auto, \
     frame or slow)"
    Engine.default;
  with_env "QUIPPER_DOMAINS" " 3 " (fun () ->
      Alcotest.(check (option int)) "padded value" (Some 3)
        (K.env "QUIPPER_DOMAINS" K.positive_int));
  with_env "QUIPPER_ENGINE" "" (fun () ->
      Alcotest.(check bool) "blank is unset" true (Engine.default () = `Auto))

let suite =
  suite
  @ [ Alcotest.test_case "tuning variables: junk raises, naming it" `Quick
        test_tuning_variables;
      Alcotest.test_case "par_range edge cases (2 domains)" `Quick
        test_par_range_edges;
      Alcotest.test_case "one fan-out rule: amplitudes touched" `Quick
        test_fan_out_rule ]
