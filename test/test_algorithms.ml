(* Integration tests across the seven algorithm implementations: circuit
   validity, oracle semantics against classical references, end-to-end
   simulation where the instance fits, and the structural properties the
   paper's evaluation relies on. *)

open Quipper
open Circ
module Sv = Quipper_sim.Statevector
module Cs = Quipper_sim.Classical
module Qureg = Quipper_arith.Qureg

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Triangle Finding                                                    *)

let tf_small = { Algo_tf.Oracle.l = 3; n = 2; r = 1 }

let test_tf_oracle_matches_reference () =
  let p = tf_small in
  let node = Qureg.shape p.Algo_tf.Oracle.n in
  let shape = Qdata.triple node node Qdata.qubit in
  for u = 0 to 3 do
    for w = 0 to 3 do
      let u', w', e =
        Cs.run_oracle ~in_:shape ~out:shape (u, w, false) (fun t ->
            Algo_tf.Oracle.o1_ORACLE ~p t)
      in
      check "inputs preserved" true (u' = u && w' = w);
      check
        (Fmt.str "edge(%d,%d)" u w)
        true
        (e = Algo_tf.Oracle.edge_sem ~p u w)
    done
  done

let test_tf_oracle_symmetric () =
  let p = { Algo_tf.Oracle.l = 5; n = 4; r = 1 } in
  for u = 0 to 15 do
    for w = 0 to 15 do
      check "edge predicate symmetric" true
        (Algo_tf.Oracle.edge_sem ~p u w = Algo_tf.Oracle.edge_sem ~p w u)
    done
  done

let test_tf_oracle_xor_involution () =
  (* applying the reversible oracle twice must restore the edge bit *)
  let p = tf_small in
  let node = Qureg.shape p.Algo_tf.Oracle.n in
  let shape = Qdata.triple node node Qdata.qubit in
  for u = 0 to 3 do
    let w = (u + 1) land 3 in
    let _, _, e =
      Cs.run_oracle ~in_:shape ~out:shape (u, w, false) (fun t ->
          let* t = Algo_tf.Oracle.o1_ORACLE ~p t in
          Algo_tf.Oracle.o1_ORACLE ~p t)
    in
    check "double oracle = identity on target" true (e = false)
  done

let test_tf_circuits_validate () =
  List.iter
    (fun p ->
      Circuit.validate_b (Algo_tf.Qwtfp.generate_pow17 ~p ());
      Circuit.validate_b (Algo_tf.Qwtfp.generate_oracle ~p ());
      Circuit.validate_b (Algo_tf.Qwtfp.generate_qwsh ~p ()))
    [ tf_small; { Algo_tf.Oracle.l = 4; n = 3; r = 2 } ]

let test_tf_full_structure () =
  let p = { Algo_tf.Oracle.l = 3; n = 2; r = 1 } in
  let b = Algo_tf.Qwtfp.generate ~p () in
  Circuit.validate_b b;
  let s = Gatecount.summarize b in
  check "nontrivial" true (s.Gatecount.total > 1000);
  (* subroutine hierarchy present *)
  check "hierarchical" true
    (List.for_all
       (fun name -> Circuit.Namespace.mem name b.Circuit.subs)
       [ "o1"; "o4"; "o8"; "o7_ADD_controlled"; "a5"; "a6"; "a4" ])

(* The whole algorithm at the paper's l and n, r=4: the structural hash
   pins every gate, wire id and body, and was recorded before box calls
   became linear in their width. *)
let test_tf_paper_point_hash () =
  let b = Algo_tf.Qwtfp.generate ~p:{ Algo_tf.Oracle.l = 31; n = 15; r = 4 } () in
  Alcotest.(check string) "Circuit.hash" "8ccc14912a9e6e2f"
    (Printf.sprintf "%Lx" (Circuit.hash b))

(* The printed whole-algorithm circuit at l=3 n=2 r=2, comment labels
   included (`tf -l 3 -n 2 -r 2 -f text | md5sum`), recorded before
   labels were built without Format and shapes once per box. *)
let test_tf_text_digest () =
  let b = Algo_tf.Qwtfp.generate ~p:{ Algo_tf.Oracle.l = 3; n = 2; r = 2 } () in
  Alcotest.(check string) "MD5 of the printed circuit" "52f410510174138b2c08708255da41de"
    (Digest.to_hex (Digest.string (Printer.to_string b ^ "\n")))

let test_tf_qram () =
  (* fetch from a 4-entry qram at every address *)
  let p = { Algo_tf.Oracle.l = 3; n = 2; r = 2 } in
  let entries = [ 1; 3; 0; 2 ] in
  let shape =
    Qdata.triple
      (Qdata.list_of 4 (Qureg.shape 2))
      (Qureg.shape 2) (Qureg.shape 2)
  in
  List.iteri
    (fun addr expect ->
      let _, _, fetched =
        Cs.run_oracle ~in_:shape ~out:shape (entries, addr, 0)
          (fun (tt, i, ttd) ->
            let* () = Algo_tf.Qwtfp.qram_fetch ~p i (Array.of_list tt) ttd in
            return (tt, i, ttd))
      in
      checki (Fmt.str "fetch tt[%d]" addr) expect fetched)
    entries

let test_tf_gatecounts_scale () =
  (* oracle cost grows superlinearly in l (quadratic-ish multiplier) *)
  let total l =
    let p = { Algo_tf.Oracle.l; n = 3; r = 2 } in
    Gatecount.total (Gatecount.aggregate (Algo_tf.Qwtfp.generate_oracle ~p ()))
  in
  let t4 = total 4 and t8 = total 8 in
  check "superlinear growth" true (t8 > 3 * t4)

(* ------------------------------------------------------------------ *)
(* BWT                                                                 *)

let test_bwt_circuits_validate () =
  Circuit.validate_b (Algo_bwt.generate ~which:`Orthodox ());
  Circuit.validate_b (Algo_bwt.generate ~which:`Template ());
  Circuit.validate_b (Qcl_baseline.Bwt_qcl.generate ())

let test_bwt_comparison_shape () =
  (* the section-6 ordering: QCL >> template > orthodox on gates;
     orthodox < template and orthodox < qcl on qubits *)
  let count b = (Gatecount.summarize b).Gatecount.total_logical in
  let qubits b = (Gatecount.summarize b).Gatecount.qubits in
  let qcl = Qcl_baseline.Bwt_qcl.generate () in
  let orth = Algo_bwt.generate ~which:`Orthodox () in
  let tmpl = Algo_bwt.generate ~which:`Template () in
  check "QCL produces far more gates than orthodox" true (count qcl > 3 * count orth);
  check "QCL uses more qubits than orthodox" true (qubits qcl > 2 * qubits orth);
  check "template uses more qubits than orthodox" true (qubits tmpl > qubits orth);
  check "template total below QCL" true (count tmpl < count qcl)

let test_bwt_w_gate_count () =
  (* the W count of the section-6 table: 2 per label pair per colour *)
  let p = Algo_bwt.default_params in
  let b = Algo_bwt.generate ~p ~which:`Orthodox () in
  let counts = Gatecount.aggregate b in
  let expected = 2 * Algo_bwt.label_width p * 4 * p.Algo_bwt.s in
  checki "W gates" expected
    (Gatecount.find_kind counts "W" + Gatecount.find_kind counts "W*");
  checki "one e^-iZt per colour per step" (4 * p.Algo_bwt.s)
    (Gatecount.find_kind counts "exp(-i%Z)")

let test_bwt_timestep_unitary () =
  (* timestep then reversed timestep = identity (statevector check) *)
  let m = 2 in
  let shape = Qdata.triple (Qureg.shape m) (Qureg.shape m) Qdata.qubit in
  let f (a, b, r) =
    let* () = Algo_bwt.timestep ~dt:0.51 a b r in
    return (a, b, r)
  in
  let st, regs =
    Sv.run_fun ~seed:4 ~in_:shape (1, 2, false) (fun regs ->
        let* regs = f regs in
        reverse_simple shape f regs)
  in
  let va, vb, vr = Sv.measure_and_read st shape regs in
  check "roundtrip restores basis state" true (va = 1 && vb = 2 && vr = false)

(* ------------------------------------------------------------------ *)
(* Boolean Formula / Hex                                               *)

let test_hex_flood_fill_reference () =
  let b = { Algo_bf.width = 3; height = 3 } in
  (* full blue board: wins; empty: loses *)
  check "full board wins" true (Algo_bf.blue_wins_sem b (Array.make 9 true));
  check "empty board loses" false (Algo_bf.blue_wins_sem b (Array.make 9 false));
  (* a winding path *)
  let board = Array.make 9 false in
  List.iter (fun (x, y) -> board.((y * 3) + x) <- true) [ (0, 0); (1, 0); (1, 1); (2, 1) ];
  check "path connects" true (Algo_bf.blue_wins_sem b board);
  let board2 = Array.make 9 false in
  List.iter (fun (x, y) -> board2.((y * 3) + x) <- true) [ (0, 0); (2, 0) ];
  check "gap does not connect" false (Algo_bf.blue_wins_sem b board2)

let test_hex_oracle_matches_reference () =
  let bd = { Algo_bf.width = 3; height = 2 } in
  let cells = Algo_bf.cells bd in
  let shape = Qdata.pair (Qdata.array_of cells Qdata.qubit) Qdata.qubit in
  for v = 0 to (1 lsl cells) - 1 do
    let board = Array.init cells (fun i -> (v lsr i) land 1 = 1) in
    let _, won =
      Cs.run_oracle ~in_:shape ~out:shape (board, false)
        (Algo_bf.winner_oracle bd)
    in
    check (Fmt.str "hex oracle on %d" v) true (won = Algo_bf.blue_wins_sem bd board)
  done

let test_hex_oracle_validates () =
  Circuit.validate_b (Algo_bf.generate_oracle ~board:{ Algo_bf.width = 4; height = 3 } ())

let test_hex_record_oracle () =
  (* decode + flood fill from a move record on a 2x2 board: moves fill all
     cells, blue = even moves *)
  let bd = { Algo_bf.width = 2; height = 2 } in
  let mb = Algo_bf.move_bits bd in
  let shape =
    Qdata.pair (Qdata.array_of 4 (Qureg.shape mb)) Qdata.qubit
  in
  (* moves: blue plays cells 0 and 1 (a left-right path on row 0 requires
     cells 0,1: cell 0 = (0,0), cell 1 = (1,0)) *)
  let moves = [| 0; 2; 1; 3 |] in
  let _, won =
    Cs.run_oracle ~in_:shape ~out:shape (moves, false)
      (Algo_bf.winner_oracle_moves bd)
  in
  check "blue wins with top row" true won;
  let moves2 = [| 0; 1; 2; 3 |] in
  (* blue holds cells 0 and 2 = left column only: no left-right path *)
  let _, won2 =
    Cs.run_oracle ~in_:shape ~out:shape (moves2, false)
      (Algo_bf.winner_oracle_moves bd)
  in
  check "left column does not win" false won2

(* ------------------------------------------------------------------ *)
(* QLS / GSE / USV / CL                                                *)

let test_qls_sin_circuit_counts () =
  let b = Algo_qls.generate_sin ~int_bits:8 ~frac_bits:8 () in
  Circuit.validate_b b;
  let s = Gatecount.summarize b in
  check "tens of thousands of gates at 8+8" true (s.Gatecount.total > 10_000)

let test_qls_hhl_validates () =
  let b = Algo_qls.generate () in
  Circuit.validate_b b

let test_gse_energy_estimate () =
  let p = Algo_gse.default_params in
  let exact = Algo_gse.exact_ground_energy p.Algo_gse.hamiltonian in
  let estimates =
    List.init 9 (fun seed ->
        let st, counting =
          Sv.run_fun ~seed:(seed + 1) ~in_:Qdata.unit () (fun () -> Algo_gse.gse ~p)
        in
        let v =
          Sv.measure_and_read st (Qureg.shape p.Algo_gse.precision_bits) counting
        in
        Algo_gse.energy_of_counting ~p v)
  in
  let median = List.nth (List.sort compare estimates) 4 in
  check "median within 2 resolution steps of exact" true
    (Float.abs (median -. exact) < 0.1)

let test_usv_dynamic_lifting_recovers_hidden () =
  List.iter
    (fun hidden ->
      let p = { Algo_usv.bits = 5; hidden } in
      let _, v =
        Sv.run_fun ~seed:(hidden + 1) ~in_:Qdata.unit () (fun () ->
            Algo_usv.kernel ~p)
      in
      checki (Fmt.str "hidden %d" hidden) hidden v)
    [ 0; 1; 7; 12; 21; 31 ]

let test_usv_circuit_validates () =
  Circuit.validate_b (Algo_usv.generate ())

let test_cl_mod_oracle () =
  let p = { Algo_cl.arg_bits = 5; period = 3 } in
  let shape = Qureg.shape p.Algo_cl.arg_bits in
  for x = 0 to 31 do
    let _, fx =
      Cs.run_oracle ~in_:shape
        ~out:(Qdata.pair shape (Qureg.shape 3))
        x
        (fun xq ->
          let* f = Algo_cl.mod_oracle ~p xq in
          return (xq, f))
    in
    checki (Fmt.str "%d mod 3" x) (x mod 3) fx
  done

let test_cl_period_recovery () =
  let p = Algo_cl.default_params in
  let found = ref false in
  for seed = 1 to 15 do
    let st, (x_bits, _) =
      Sv.run_fun ~seed ~in_:Qdata.unit () (fun () -> Algo_cl.period_find_circuit ~p)
    in
    let v =
      Array.to_list x_bits
      |> List.mapi (fun i b -> (i, Sv.read_bit st (Wire.bit_wire b)))
      |> List.fold_left (fun acc (i, b) -> if b then acc lor (1 lsl i) else acc) 0
    in
    match Algo_cl.recover_period ~p v with
    | Some s when s = p.Algo_cl.period -> found := true
    | _ -> ()
  done;
  check "period recovered in some shot" true !found

let test_cl_continued_fractions () =
  let p = { Algo_cl.arg_bits = 6; period = 5 } in
  (* measured = round(k * 64 / 5): the CF machinery must find 5 *)
  check "cf finds 5 from 13" true (Algo_cl.recover_period ~p 13 = Some 5);
  check "cf nothing from 0" true (Algo_cl.recover_period ~p 0 = None)

let suite =
  [
    Alcotest.test_case "TF oracle vs reference" `Quick test_tf_oracle_matches_reference;
    Alcotest.test_case "TF edge symmetric" `Quick test_tf_oracle_symmetric;
    Alcotest.test_case "TF oracle involution" `Quick test_tf_oracle_xor_involution;
    Alcotest.test_case "TF circuits validate" `Quick test_tf_circuits_validate;
    Alcotest.test_case "TF full structure" `Quick test_tf_full_structure;
    Alcotest.test_case "TF paper-point hash (r=4)" `Quick test_tf_paper_point_hash;
    Alcotest.test_case "TF printed text digest (l=3 n=2 r=2)" `Quick test_tf_text_digest;
    Alcotest.test_case "TF qram fetch" `Quick test_tf_qram;
    Alcotest.test_case "TF oracle scaling" `Quick test_tf_gatecounts_scale;
    Alcotest.test_case "BWT circuits validate" `Quick test_bwt_circuits_validate;
    Alcotest.test_case "BWT section-6 ordering" `Quick test_bwt_comparison_shape;
    Alcotest.test_case "BWT W-gate count" `Quick test_bwt_w_gate_count;
    Alcotest.test_case "BWT timestep unitary" `Quick test_bwt_timestep_unitary;
    Alcotest.test_case "Hex flood fill reference" `Quick test_hex_flood_fill_reference;
    Alcotest.test_case "Hex oracle vs reference" `Slow test_hex_oracle_matches_reference;
    Alcotest.test_case "Hex oracle validates" `Quick test_hex_oracle_validates;
    Alcotest.test_case "Hex record oracle" `Quick test_hex_record_oracle;
    Alcotest.test_case "QLS sin circuit" `Quick test_qls_sin_circuit_counts;
    Alcotest.test_case "QLS HHL validates" `Quick test_qls_hhl_validates;
    Alcotest.test_case "GSE energy estimate" `Slow test_gse_energy_estimate;
    Alcotest.test_case "USV recovers hidden value" `Quick test_usv_dynamic_lifting_recovers_hidden;
    Alcotest.test_case "USV circuit validates" `Quick test_usv_circuit_validates;
    Alcotest.test_case "CL mod oracle" `Quick test_cl_mod_oracle;
    Alcotest.test_case "CL period recovery" `Slow test_cl_period_recovery;
    Alcotest.test_case "CL continued fractions" `Quick test_cl_continued_fractions;
  ]

(* ------------------------------------------------------------------ *)
(* The exact welded-tree instance                                      *)

let test_bwt_exact_matchings () =
  List.iter
    (fun d ->
      let g = Algo_bwt.Exact.build ~depth:d in
      (* every colour class is a matching: neighbour is an involution *)
      for c = 0 to Algo_bwt.Exact.colours - 1 do
        for u = 0 to (1 lsl g.Algo_bwt.Exact.label_bits) - 1 do
          match Algo_bwt.Exact.neighbour_sem g ~colour:c u with
          | Some v ->
              check "involution" true
                (Algo_bwt.Exact.neighbour_sem g ~colour:c v = Some u)
          | None -> ()
        done
      done;
      (* 3-regularity away from the roots *)
      let deg u =
        List.length
          (List.filter (fun (a, b, _) -> a = u || b = u) g.Algo_bwt.Exact.edges)
      in
      checki "entrance degree 2" 2 (deg g.Algo_bwt.Exact.entrance);
      checki "exit degree 2" 2 (deg g.Algo_bwt.Exact.exit);
      checki "leaf degree 3" 3 (deg (1 lsl d)))
    [ 1; 2; 3 ]

let test_bwt_exact_oracle_table () =
  let g = Algo_bwt.Exact.build ~depth:2 in
  let m = g.Algo_bwt.Exact.label_bits in
  let shape = Qureg.shape m in
  for u = 0 to (1 lsl m) - 1 do
    for c = 0 to Algo_bwt.Exact.colours - 1 do
      let _, (b, r) =
        Cs.run_oracle ~in_:shape
          ~out:(Qdata.pair shape (Qdata.pair shape Qdata.qubit))
          u
          (fun a ->
            let* br = Algo_bwt.Exact.neighbour g ~colour:c a in
            return (a, br))
      in
      match Algo_bwt.Exact.neighbour_sem g ~colour:c u with
      | Some v -> check "edge found" true (b = v && not r)
      | None -> check "no edge" true (b = 0 && r)
    done
  done

let test_bwt_exact_walk_reaches_exit () =
  let g = Algo_bwt.Exact.build ~depth:2 in
  let m = g.Algo_bwt.Exact.label_bits in
  let st, a =
    Sv.run_fun ~seed:1 ~in_:Qdata.unit () (fun () ->
        Algo_bwt.Exact.walk g ~steps:3 ~dt:0.9)
  in
  let wires = Array.to_list a |> List.map Wire.qubit_wire in
  let p_exit =
    Quipper_math.Cplx.norm2
      (Sv.amplitude st wires
         (List.init m (fun i -> (g.Algo_bwt.Exact.exit lsr i) land 1 = 1)))
  in
  check "walk reaches the exit with substantial probability" true (p_exit > 0.2)

let exact_suite =
  [
    Alcotest.test_case "exact BWT: matchings" `Quick test_bwt_exact_matchings;
    Alcotest.test_case "exact BWT: oracle table" `Quick test_bwt_exact_oracle_table;
    Alcotest.test_case "exact BWT: walk reaches exit" `Slow test_bwt_exact_walk_reaches_exit;
  ]

let suite = suite @ exact_suite

(* ------------------------------------------------------------------ *)
(* The QCL-style generator's building blocks: each must be semantically
   identical to the direct gate it replaces (statevector-verified), so
   the whole QCL circuit implements the same algorithm at inflated cost.
   (The full-circuit comparison needs the Exact matching oracle — the
   count-oriented oracles are not involutions, and exact simulation
   rightly rejects their uncompute assertions.) *)

let same_semantics a b =
  let n = List.length a.Circuit.main.Circuit.inputs in
  List.for_all
    (fun v ->
      let ins = List.init n (fun i -> (v lsr i) land 1 = 1) in
      let va = Sv.output_vector a ins and vb = Sv.output_vector b ins in
      Array.for_all2 (fun x y -> Quipper_math.Cplx.equal ~eps:1e-9 x y) va vb)
    (List.init (1 lsl n) Fun.id)

let test_qcl_blocks_semantics () =
  let shape3 = Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit in
  (* assign_xor == multi-controlled not *)
  let qcl_assign =
    fst
      (Circ.generate ~in_:shape3 (fun (a, b, t) ->
           let h = Qcl_baseline.Qcl.new_heap () in
           let* () = Qcl_baseline.Qcl.assign_xor h t [ ctl a; ctl_neg b ] in
           (* retire the (clean) heap scratch so aritys match *)
           let* () = iterm (qterm_bit false) h.Qcl_baseline.Qcl.free in
           return (a, b, t)))
  in
  let direct =
    fst
      (Circ.generate ~in_:shape3 (fun (a, b, t) ->
           let* () = qnot_ t |> controlled [ ctl a; ctl_neg b ] in
           return (a, b, t)))
  in
  check "assign_xor == signed toffoli" true (same_semantics qcl_assign direct);
  (* quantum_if == with_controls *)
  let qcl_if =
    fst
      (Circ.generate ~in_:shape3 (fun (a, b, t) ->
           let h = Qcl_baseline.Qcl.new_heap () in
           let* () =
             Qcl_baseline.Qcl.quantum_if h [ ctl a ]
               (hadamard_ t >> cnot ~control:t ~target:b)
           in
           let* () = iterm (qterm_bit false) h.Qcl_baseline.Qcl.free in
           return (a, b, t)))
  in
  let direct_if =
    fst
      (Circ.generate ~in_:shape3 (fun (a, b, t) ->
           let* () =
             with_controls [ ctl a ] (hadamard_ t >> cnot ~control:t ~target:b)
           in
           return (a, b, t)))
  in
  check "quantum_if == with_controls" true (same_semantics qcl_if direct_if)

let test_qcl_mcnot_semantics () =
  let shape = Qdata.list_of 5 Qdata.qubit in
  let qcl =
    fst
      (Circ.generate ~in_:shape (fun qs ->
           let qs = Array.of_list qs in
           let h = Qcl_baseline.Qcl.new_heap () in
           let* () =
             Qcl_baseline.Qcl.mcnot h qs.(4)
               [ ctl qs.(0); ctl_neg qs.(1); ctl qs.(2); ctl_neg qs.(3) ]
           in
           let* () = iterm (qterm_bit false) h.Qcl_baseline.Qcl.free in
           return (Array.to_list qs)))
  in
  let direct =
    fst
      (Circ.generate ~in_:shape (fun qs ->
           let qs = Array.of_list qs in
           let* () =
             qnot_ qs.(4)
             |> controlled
                  [ ctl qs.(0); ctl_neg qs.(1); ctl qs.(2); ctl_neg qs.(3) ]
           in
           return (Array.to_list qs)))
  in
  check "mcnot cascade == 4-controlled not" true (same_semantics qcl direct)

let qcl_suite =
  [
    Alcotest.test_case "QCL building blocks: assign_xor / quantum_if" `Quick
      test_qcl_blocks_semantics;
    Alcotest.test_case "QCL building blocks: mcnot cascade" `Slow
      test_qcl_mcnot_semantics;
  ]

let suite = suite @ qcl_suite
