(* Tests for the depth projection and the per-subroutine counter. *)

open Quipper
module Gen = Quipper_testgen.Gen
module Estimate = Quipper_estimate.Estimate
module Wide = Quipper_estimate.Wide
open Circ

let checki = Alcotest.(check int)
let check = Alcotest.(check bool)

let test_sequential_depth () =
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        iterate 7 hadamard q)
  in
  checki "7 sequential gates" 7 (Depth.depth b)

let test_parallel_depth () =
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 6 Qdata.qubit) (fun qs ->
        let* () = iterm hadamard_ qs in
        return qs)
  in
  checki "6 parallel gates, depth 1" 1 (Depth.depth b)

let test_entangling_depth () =
  (* GHZ chain: each CNOT waits for the previous *)
  let n = 5 in
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (fun qs ->
        let qs = Array.of_list qs in
        let* () = hadamard_ qs.(0) in
        let* () =
          iterm
            (fun i -> cnot ~control:qs.(i) ~target:qs.(i + 1))
            (List.init (n - 1) Fun.id)
        in
        return (Array.to_list qs))
  in
  checki "H + chain of CNOTs" n (Depth.depth b)

let test_ancilla_depth () =
  (* init/term each cost one step on their wire *)
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        with_ancilla (fun a ->
            let* () = cnot ~control:q ~target:a in
            let* () = cnot ~control:q ~target:a in
            return q))
  in
  (* init, 2 cnots, term on the ancilla timeline *)
  checki "ancilla timeline" 4 (Depth.depth b)

let test_hierarchical_depth_bound () =
  (* boxed depth is an upper bound on the inlined depth *)
  let sub =
    box "dsub" ~in_:(Qdata.pair Qdata.qubit Qdata.qubit)
      ~out:(Qdata.pair Qdata.qubit Qdata.qubit)
      (fun (a, b) ->
        let* _ = hadamard a in
        let* _ = hadamard b in
        (* depth 1 inlined, but the call serialises both wires *)
        return (a, b))
  in
  let b, _ =
    Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (a, bq) ->
        let* x = sub (a, bq) in
        sub x)
  in
  let boxed = Depth.depth b in
  let flat = Depth.depth (Circuit.of_main (Circuit.inline b)) in
  check "bound holds" true (boxed >= flat);
  checki "flat depth" 2 flat;
  checki "boxed bound" 2 boxed

let prop_depth_bound_random =
  QCheck2.Test.make ~name:"hierarchical depth bounds inlined depth" ~count:60
    (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let boxed = Depth.depth b in
      let flat = Depth.depth (Circuit.of_main (Circuit.inline b)) in
      boxed >= flat && flat > 0 = (boxed > 0))

let test_depth_le_gates () =
  let p = { Algo_tf.Oracle.l = 4; n = 3; r = 2 } in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let d = Depth.depth b in
  let total = Gatecount.total (Gatecount.aggregate b) in
  check "1 <= depth <= total gates" true (d >= 1 && d <= total)

(* The T-count is the magic-state count: uncontrolled T and T* only, so
   the controlled T below is not one of them. *)
let test_profile () =
  let b, _ =
    Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (q, c) ->
        let* q = gate_T q in
        let* q = hadamard q in
        let* q = gate_T q in
        let* q = gate_T q |> controlled [ ctl c ] in
        return (q, c))
  in
  let v = Estimate.of_circuit b in
  check "t count" true (Wide.equal_int (Estimate.t_count v) 2);
  checki "depth" 4 (Depth.depth b)

let test_per_subroutine () =
  let p = { Algo_tf.Oracle.l = 4; n = 3; r = 2 } in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let per = List.map (fun (name, v) -> (name, Gatecount.summary_of v)) (snd (Resource.report b)) in
  check "has o7, o8, o4" true
    (List.for_all
       (fun n -> List.mem_assoc n per)
       [ "o7_ADD_controlled"; "o8"; "o4" ]);
  (* o4's own aggregate equals the whole circuit's (the main is one call) *)
  let o4 = List.assoc "o4" per in
  let whole = Gatecount.summarize b in
  checki "o4 total = circuit total" whole.Gatecount.total o4.Gatecount.total;
  (* nesting is monotone: o7 <= o8 <= o4 *)
  let t name = (List.assoc name per).Gatecount.total in
  check "monotone nesting" true
    (t "o7_ADD_controlled" < t "o8" && t "o8" < t "o4")

let suite =
  [
    Alcotest.test_case "sequential depth" `Quick test_sequential_depth;
    Alcotest.test_case "parallel depth" `Quick test_parallel_depth;
    Alcotest.test_case "entangling chain depth" `Quick test_entangling_depth;
    Alcotest.test_case "ancilla timeline depth" `Quick test_ancilla_depth;
    Alcotest.test_case "hierarchical bound" `Quick test_hierarchical_depth_bound;
    QCheck_alcotest.to_alcotest prop_depth_bound_random;
    Alcotest.test_case "depth <= gates" `Quick test_depth_le_gates;
    Alcotest.test_case "profile" `Quick test_profile;
    Alcotest.test_case "per-subroutine counts" `Quick test_per_subroutine;
  ]
