(* Tests for the optimizer subsystem: the T/S/Z fusion kernel, each
   peephole rule on hand-built circuits through [Passes.optimize], its
   statistics, and property-based translation validation —
   every optimized random circuit must validate, mean the same thing
   (statevector up to global phase, or bit-for-bit classically), never
   get deeper, and still round-trip through the printer and parser. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ
module Passes = Quipper_opt.Passes
module Stream_opt = Quipper_opt.Stream_opt
module Equiv = Quipper_opt.Equiv

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let gen_shape n f = fst (Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) f)
let optimize b = fst (Passes.optimize b)
let find_kind b k = Gatecount.find_kind (Gatecount.aggregate b) k

(* ------------------------------------------------------------------ *)
(* Fusion kernel                                                        *)

let test_fusion_kernel () =
  let q = 0 and c = 1 in
  let g ?(controls = []) name inv =
    Gate.Gate { name; inv; targets = [ q ]; controls }
  in
  let fused a b =
    match Gate.fusion a b with
    | Some f when Gate.is_identity f -> "id"
    | Some (Gate.Gate { name; inv; _ }) -> if inv then name ^ "*" else name
    | Some _ -> "other"
    | None -> "none"
  in
  let checks = Alcotest.(check string) in
  checks "S.T* = T" "T" (fused (g "S" false) (g "T" true));
  checks "T.T* = id" "id" (fused (g "T" false) (g "T" true));
  let controls = [ Gate.pos_control c ] in
  checks "Z.S* = S under a control" "S"
    (fused (g ~controls "Z" false) (g ~controls "S" true));
  checks "T.S = 3 eighths: no fusion" "none" (fused (g "T" false) (g "S" false));
  checks "mismatched controls: no fusion" "none"
    (fused (g ~controls "Z" false) (g "S" true))

let test_comments_transparent () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* q = hadamard q in
          let* () = comment "between" in
          let* q = hadamard q in
          return [ q ]
      | _ -> assert false)
  in
  (* the H pair cancels across the comment, which itself survives *)
  let c' = (optimize b).Circuit.main in
  checki "only the comment remains" 1 (Array.length c'.Circuit.gates);
  check "and it is the comment" true (Gate.is_comment c'.Circuit.gates.(0))

(* ------------------------------------------------------------------ *)
(* Rewrites on hand-built circuits                                     *)

let test_cancel_across_commuting () =
  (* T and T* sandwich a CNOT controlled on the same wire: the control is
     diagonal, so the pair cancels across it *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* a = gate_T a in
          let* () = cnot ~control:a ~target:b in
          let* () = gate_T_inv a in
          return [ a; b ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "T pair cancelled" 0 (find_kind b' "T");
  checki "CNOT stays" 1 (find_kind b' "Not")

let test_cancel_blocked_by_noncommuting () =
  (* same sandwich but the CNOT *targets* the wire: T does not commute
     with X, nothing may cancel *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* a = gate_T a in
          let* () = cnot ~control:b ~target:a in
          let* () = gate_T_inv a in
          return [ a; b ]
      | _ -> assert false)
  in
  let b' = optimize b in
  checki "T pair must stay" 2 (find_kind b' "T")

let test_dead_init_elimination () =
  (* an ancilla initialised and terminated without use dies, even with
     unrelated gates in between in the global order *)
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* x = qinit_bit false in
          let* q = hadamard q in
          let* () = qterm_bit false x in
          return [ q ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "Init0 gone" 0 (find_kind b' "Init0");
  checki "Term0 gone" 0 (find_kind b' "Term0");
  checki "H stays" 1 (find_kind b' "H")

let test_fusion () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* q = gate_T q in
          let* q = gate_T q in
          let* () = rot_expZt 0.125 q in
          let* () = rot_expZt 0.25 q in
          return [ q ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "T.T fused away" 0 (find_kind b' "T");
  checki "...into one S" 1 (find_kind b' "S");
  checki "rotations fused into one" 1 (find_kind b' "exp(-i%Z)")

let test_fusion_to_identity () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* () = rot_expZt 0.25 q in
          let* () = rot_expZt (-0.25) q in
          return [ q ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "zero-angle fusion removes both" 0
    (Array.length b'.Circuit.main.Circuit.gates)

let test_flip_controls () =
  (* X . CNOT(control) . X = CNOT with negated control *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* () = qnot_ b in
          let* () = cnot ~control:b ~target:a in
          let* () = qnot_ b in
          return [ a; b ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "one gate left" 1 (Array.length b'.Circuit.main.Circuit.gates);
  checki "with a negative control" 1
    (Gatecount.get (Gatecount.aggregate b')
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 0; neg_controls = 1 })

let test_propagate_constants () =
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* x = qinit_bit true in
          (* control known true: dropped *)
          let* () = qnot_ a |> controlled [ ctl x ] in
          (* negative control on a known-true wire: gate deleted *)
          let* () = qnot_ b |> controlled [ ctl_neg x ] in
          let* () = qterm_bit true x in
          return [ a; b ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "one NOT left" 1 (find_kind b' "Not");
  checki "and it is uncontrolled" 1
    (Gatecount.get (Gatecount.aggregate b')
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 0; neg_controls = 0 })

let test_constant_swap_deleted () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* x = qinit_bit false in
          let* y = qinit_bit false in
          let* () = swap x y in
          let* () = qterm_bit false x in
          let* () = qterm_bit false y in
          return [ q ]
      | _ -> assert false)
  in
  let b' = optimize b in
  Circuit.validate_b b';
  checki "swap of equal constants deleted" 0 (find_kind b' "Swap")

let test_dead_renaming_call_kept () =
  (* a call whose outputs differ from its inputs, under one control known
     to hold and one known to fail: it never fires, but deleting it would
     orphan its output wire, so it stays with both controls — and the
     round counts no dropped control, or the fixpoint would never end *)
  let alloc q =
    let* a = qinit_bit false in
    return (q, a)
  in
  let prog q =
    let call =
      box "alloc" ~in_:Qdata.qubit ~out:(Qdata.pair Qdata.qubit Qdata.qubit) alloc
    in
    let* x = qinit_bit true in
    let* y = qinit_bit false in
    let* q, a = call q |> controlled [ ctl x; ctl y ] in
    let* () = qterm_bit true x in
    let* () = qterm_bit false y in
    return (q, a)
  in
  let b, _ = Circ.generate ~in_:Qdata.qubit prog in
  let st = Stream_opt.stats_create () in
  ignore (Stream_opt.optimize_b ~rounds:1 ~stats:st b);
  checki "no control counted as dropped" 0 st.Stream_opt.const_controls;
  let b', stats = Passes.optimize b in
  Circuit.validate_b b';
  checki "one round changes nothing" 1 (List.length stats);
  check "call kept with both controls" true
    (Array.exists
       (function
         | Gate.Subroutine { controls; _ } -> List.length controls = 2
         | _ -> false)
       b'.Circuit.main.Circuit.gates)

(* ------------------------------------------------------------------ *)
(* Statistics                                                           *)

let test_optimize_reports_stats () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* q = hadamard q in
          let* q = hadamard q in
          return [ q ]
      | _ -> assert false)
  in
  let b', stats = Passes.optimize b in
  checki "everything cancelled" 0 (Array.length b'.Circuit.main.Circuit.gates);
  match stats with
  | [ r1 ] ->
      checki "round one" 1 r1.Passes.round;
      checki "round one removed the H pair" 2
        (r1.Passes.gates_before - r1.Passes.gates_after);
      checki "as one cancellation" 1 r1.Passes.rules.Stream_opt.cancelled
  | _ -> Alcotest.failf "expected 1 round, got %d" (List.length stats)

(* ------------------------------------------------------------------ *)
(* Translation validation on random circuits                           *)

let prop_optimize_statevector =
  QCheck2.Test.make
    ~name:"optimized random circuits are equivalent (statevector, up to phase)"
    ~count:200 (Gen.program_gen ~n:4 ()) (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let b' = optimize b in
      Circuit.validate_b b';
      Equiv.equivalent (Equiv.check b b'))

let prop_optimize_classical =
  QCheck2.Test.make
    ~name:"optimized reversible circuits are equivalent (classical, bit-for-bit)"
    ~count:100
    (Gen.classical_program_gen ~n:5 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:5 ops in
      let b' = optimize b in
      Circuit.validate_b b';
      match Equiv.check b b' with
      | Equiv.Equivalent { mode = Equiv.Classical; _ } -> true
      | _ -> false)

let prop_optimize_never_deepens =
  QCheck2.Test.make ~name:"the default pipeline never increases depth" ~count:50
    (Gen.program_gen ~n:4 ()) (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let b', stats = Passes.optimize b in
      Depth.depth b' <= Depth.depth b
      && List.for_all
           (fun (s : Passes.stat) -> s.Passes.depth_after <= s.Passes.depth_before)
           stats)

let prop_optimized_roundtrip =
  QCheck2.Test.make ~name:"optimized circuits round-trip through print/parse"
    ~count:100 (Gen.program_gen ~n:4 ()) (fun ops ->
      let b' = optimize (Gen.circuit_of_program ~n:4 ops) in
      let s = Printer.to_string b' in
      let b'' = Parser.parse s in
      Circuit.validate_b b'';
      s = Printer.to_string b'')

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "fusion kernel: T/S/Z phase sums" `Quick test_fusion_kernel;
    Alcotest.test_case "comments transparent to cancel" `Quick
      test_comments_transparent;
    Alcotest.test_case "cancel across commuting" `Quick test_cancel_across_commuting;
    Alcotest.test_case "cancel blocked when not commuting" `Quick
      test_cancel_blocked_by_noncommuting;
    Alcotest.test_case "dead init elimination" `Quick test_dead_init_elimination;
    Alcotest.test_case "rotation fusion" `Quick test_fusion;
    Alcotest.test_case "fusion to identity" `Quick test_fusion_to_identity;
    Alcotest.test_case "NOT-conjugation flips controls" `Quick test_flip_controls;
    Alcotest.test_case "constant propagation" `Quick test_propagate_constants;
    Alcotest.test_case "constant swap deletion" `Quick test_constant_swap_deleted;
    Alcotest.test_case "dead renaming call kept" `Quick test_dead_renaming_call_kept;
    Alcotest.test_case "per-pass statistics" `Quick test_optimize_reports_stats;
    QCheck_alcotest.to_alcotest prop_optimize_statevector;
    QCheck_alcotest.to_alcotest prop_optimize_classical;
    QCheck_alcotest.to_alcotest prop_optimize_never_deepens;
    QCheck_alcotest.to_alcotest prop_optimized_roundtrip;
  ]
