(* Tests for the streaming optimizer: hand-built cascades through the
   windowed sink, retirement-boundary soundness regressions, a
   200-circuit differential corpus (streamed-optimized output must mean
   the same thing as the input, statevector up to global phase or
   bit-for-bit classically), streamed-vs-materialized reduction parity,
   window-monotonicity and depth properties on the same corpus, golden
   agreement with [Passes.optimize] on the paper's BWT and TF circuits,
   and the N3 table pinned.

   The corpus is deterministic: circuit [i] is [Gen.sample ~seed:i] of
   the same generators the QCheck properties use, so a failure names the
   seed and reproduces exactly. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ
module Passes = Quipper_opt.Passes
module Equiv = Quipper_opt.Equiv
module Stream_opt = Quipper_opt.Stream_opt

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let gen_shape n f = fst (Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) f)
let logical b = (Gatecount.summarize b).Gatecount.total_logical

let corpus_seeds = List.init 200 (fun i -> i)

let corpus_circuit seed =
  Gen.circuit_of_program ~n:4 (Gen.sample ~seed (Gen.program_gen ~n:4 ()))

(* ------------------------------------------------------------------ *)
(* Hand-built cascades through the window                               *)

let test_stream_cancel_pair () =
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* q = hadamard q in
          let* q = hadamard q in
          return [ q ]
      | _ -> assert false)
  in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~stats:st b in
  checki "H pair gone" 0 (logical b');
  checki "one cancellation counted" 1 st.Stream_opt.cancelled

let test_stream_const_control () =
  (* an ancilla initialised |0> controls a NOT: the control is provably
     unsatisfied, so the gate is deleted at arrival *)
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* () =
            with_ancilla (fun anc ->
                qnot_ q |> controlled [ ctl anc ])
          in
          return [ q ]
      | _ -> assert false)
  in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~stats:st b in
  check "controlled NOT deleted" true (st.Stream_opt.const_deleted >= 1);
  checki "only the ancilla init/term remain at most" 0
    (Gatecount.find_kind (Gatecount.aggregate b') "not")

let test_stream_flip_sandwich () =
  (* X (T-as-control) X collapses to a negated control *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* a = qnot a in
          let* b' = gate_T b |> controlled [ ctl a ] in
          let* a = qnot a in
          return [ a; b' ]
      | _ -> assert false)
  in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~stats:st b in
  checki "both X's absorbed" 1 (logical b');
  checki "one sandwich counted" 1 st.Stream_opt.flipped;
  check "still equivalent" true (Equiv.equivalent (Equiv.check b b'))

(* ------------------------------------------------------------------ *)
(* One stage reaches the fixpoint: three cascades it needs              *)

let gate_names (b : Circuit.b) =
  Array.to_list b.Circuit.main.Circuit.gates
  |> List.filter_map (function
       | Gate.Gate { name; controls; _ } -> Some (name, List.length controls)
       | _ -> None)

let test_stage_restores_constants () =
  (* the H pair destroys the ancilla's known 0 at arrival; cancelling
     the pair restores it, so the CNOT it controls is deleted in the same
     stage *)
  let b =
    gen_shape 1 (function
      | [ q ] ->
          let* () =
            with_ancilla (fun anc ->
                let* () = hadamard_ anc in
                let* () = hadamard_ anc in
                cnot ~control:anc ~target:q)
          in
          return [ q ]
      | _ -> assert false)
  in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~rounds:1 ~stats:st b in
  check "H pair and CNOT gone" true (gate_names b' = []);
  checki "the H pair, then the ancilla's init/term pair" 2 st.Stream_opt.cancelled;
  checki "one constant deletion" 1 st.Stream_opt.const_deleted;
  check "still equivalent" true (Equiv.equivalent (Equiv.check b b'))

let test_stage_restores_only_inside_window () =
  (* window 3: the ancilla's X pair cancels, then its first X retires
     while the second is still held; the H pair that follows must not
     restore the value recorded before the second X (1, counting the
     retired X the output lacks), or the CNOT would flip q *)
  let b =
    gen_shape 2 (function
      | [ q; r ] ->
          let* () =
            with_ancilla (fun anc ->
                let* () = qnot_ anc in
                let* _ = gate_T r in
                let* () = qnot_ anc in
                let* () = hadamard_ r in
                let* () = hadamard_ anc in
                let* () = hadamard_ anc in
                cnot ~control:anc ~target:q)
          in
          return [ q; r ]
      | _ -> assert false)
  in
  let b' = Stream_opt.optimize_b ~rounds:1 ~window:3 b in
  check "still equivalent" true (Equiv.equivalent (Equiv.check b b'))

let test_stage_reexamines_fused_entry () =
  (* corpus seed 126's cascade: [T·T] fuses to [S] at the first T's
     position, and that [S] must be re-examined to meet the older [S]
     ([S·S = Z]) across a CNOT it controls *)
  let b =
    gen_shape 2 (function
      | [ q; r ] ->
          let* q = gate_S q in
          let* q = gate_T q in
          let* () = cnot ~control:q ~target:r in
          let* q = gate_T q in
          return [ q; r ]
      | _ -> assert false)
  in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~rounds:1 ~stats:st b in
  check "S T . T -> Z ." true (gate_names b' = [ ("Z", 0); ("not", 1) ]);
  checki "two fusions" 2 st.Stream_opt.fused;
  check "still equivalent" true (Equiv.equivalent (Equiv.check b b'))

let test_stage_counts_live_entries () =
  (* window 3: the cancelled H pair holds two slots but no pressure, so
     T* arrives while T is still in the window *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* a = gate_T a in
          let* () = hadamard_ b in
          let* () = hadamard_ b in
          let* () = gate_T_inv a in
          return [ a; b ]
      | _ -> assert false)
  in
  checki "everything cancelled at window 3" 0
    (logical (Stream_opt.optimize_b ~rounds:1 ~window:3 b))

(* ------------------------------------------------------------------ *)
(* Retirement boundaries: [Gate.commutes] soundness regressions         *)

(* T and T* sandwich a CNOT *controlled* on the same wire: the control
   is diagonal, so with the window wide enough the pair cancels across
   it — the same case [test_opt] pins for the materialized walk. *)
let diagonal_sandwich () =
  gen_shape 2 (function
    | [ a; b ] ->
        let* a = gate_T a in
        let* () = cnot ~control:a ~target:b in
        let* () = gate_T_inv a in
        return [ a; b ]
    | _ -> assert false)

let test_retire_cancel_across_control () =
  let b = diagonal_sandwich () in
  let b' = Stream_opt.optimize_b b in
  checki "T pair cancelled across the diagonal control" 1 (logical b')

let test_retire_blocked_across_target () =
  (* H (CNOT targeting the wire) H must NOT cancel: the pair does not
     commute past the target *)
  let b =
    gen_shape 2 (function
      | [ a; b ] ->
          let* b = hadamard b in
          let* () = cnot ~control:a ~target:b in
          let* b = hadamard b in
          return [ a; b ]
      | _ -> assert false)
  in
  let b' = Stream_opt.optimize_b b in
  checki "nothing removed" 3 (logical b')

let test_retired_partner_is_out_of_reach () =
  (* the same diagonal sandwich, but a window of 1 retires the first T
     before its partner arrives: the walk must stop at the retired
     entry (never rewrite downstream history), leaving all three gates —
     and the output must still mean the same thing *)
  let b = diagonal_sandwich () in
  let b' = Stream_opt.optimize_b ~rounds:1 ~window:1 b in
  checki "partner retired, nothing cancelled" 3 (logical b');
  check "still equivalent" true (Equiv.equivalent (Equiv.check b b'))

(* ------------------------------------------------------------------ *)
(* Box bodies                                                           *)

let test_box_body_optimized () =
  let inner q =
    let* q = hadamard q in
    let* q = hadamard q in
    gate_T q
  in
  let prog (a, b2) =
    let call = box "inner" ~in_:Qdata.qubit ~out:Qdata.qubit inner in
    let* a = call a in
    let* a = call a in
    let* () = cnot ~control:a ~target:b2 in
    return (a, b2)
  in
  let b, _ = Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) prog in
  let st = Stream_opt.stats_create () in
  let b' = Stream_opt.optimize_b ~rounds:1 ~stats:st b in
  checki "body rewritten once for two call sites" 1 st.Stream_opt.boxes_optimized;
  let sub = Circuit.find_sub b' "inner" in
  checki "H pair removed inside the definition" 1
    (Array.length sub.Circuit.circ.Circuit.gates);
  checki "call sites intact" 2
    (Array.fold_left
       (fun acc g -> match g with Gate.Subroutine _ -> acc + 1 | _ -> acc)
       0 b'.Circuit.main.Circuit.gates);
  check "boxed circuit still equivalent" true
    (Equiv.equivalent (Equiv.check b b'))

(* ------------------------------------------------------------------ *)
(* [Sink.circuit] / [Sink.drive]: the replay loop closes                *)

let test_drive_circuit_roundtrip () =
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let b' = Sink.drive b (Sink.circuit ()) in
      checks
        (Fmt.str "drive/collect identity (seed %d)" seed)
        (Printer.to_string b) (Printer.to_string b'))
    [ 0; 1; 17; 96; 199 ]

(* ------------------------------------------------------------------ *)
(* The 200-circuit differential corpus                                  *)

let test_corpus_statevector () =
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let b' = Stream_opt.optimize_b b in
      Circuit.validate_b b';
      match Equiv.check b b' with
      | Equiv.Equivalent _ -> ()
      | v ->
          Alcotest.failf "seed %d: streamed-optimized not equivalent: %a" seed
            Equiv.pp v)
    corpus_seeds

let test_corpus_classical () =
  List.iter
    (fun seed ->
      let ops = Gen.sample ~seed (Gen.classical_program_gen ~n:5 ()) in
      let b = Gen.circuit_of_program ~n:5 ops in
      let b' = Stream_opt.optimize_b b in
      Circuit.validate_b b';
      match Equiv.check b b' with
      | Equiv.Equivalent { mode = Equiv.Classical; _ } -> ()
      | v ->
          Alcotest.failf "seed %d: not bit-for-bit classical: %a" seed Equiv.pp v)
    corpus_seeds

(* The corpus circuits take unknown inputs, so constant propagation
   sees only its ancillas. Here every wire starts from known basis
   values (bits of the seed), so dropped controls, deleted gates and
   constants restored after a removal all fire; the output must still
   mean the same, at a window that retires mid-cascade and at the
   default. *)
let test_corpus_known_inputs () =
  List.iter
    (fun seed ->
      List.iter
        (fun ops ->
          let b =
            fst
              (Circ.generate ~in_:(Qdata.list_of 0 Qdata.qubit) (fun _ ->
                   let* ql =
                     qinit (Qdata.list_of 4 Qdata.qubit)
                       (List.init 4 (fun i -> (seed lsr i) land 1 = 1))
                   in
                   Gen.program_fun ops ql))
          in
          List.iter
            (fun window ->
              let b' = Stream_opt.optimize_b ~window b in
              Circuit.validate_b b';
              if not (Equiv.equivalent (Equiv.check b b')) then
                Alcotest.failf "seed %d, window %d: not equivalent" seed window)
            [ 3; 256 ])
        [
          Gen.sample ~seed (Gen.program_gen ~n:4 ());
          Gen.sample ~seed (Gen.classical_program_gen ~n:4 ());
        ])
    corpus_seeds

(* [Passes.optimize]'s logical gate count on corpus seed [i], recorded
   from the materialized optimizer (per-wire DAG walkers, constants /
   flip-controls / cancel / fuse pipeline to a fixpoint) before it was
   replaced by the full-window [Stream_opt] stage. That stage may not
   do worse on any seed, and the default stream at a corpus-covering
   window must reach it exactly. *)
let pinned_corpus = [|
    14; 2; 13; 9; 7; 7; 8; 3; 1; 1; 6; 1; 2; 2; 8; 8; 13; 4; 4; 2;
    14; 4; 17; 13; 3; 6; 2; 14; 13; 13; 7; 7; 5; 10; 10; 18; 15; 15; 9; 1;
    10; 3; 2; 6; 7; 13; 7; 8; 11; 4; 16; 3; 14; 3; 13; 6; 13; 5; 13; 2;
    6; 5; 13; 5; 9; 9; 8; 6; 10; 11; 12; 7; 4; 7; 3; 4; 5; 3; 12; 2;
    3; 2; 8; 1; 3; 14; 14; 11; 17; 10; 10; 5; 4; 9; 6; 8; 8; 11; 13; 6;
    11; 10; 8; 1; 8; 9; 7; 4; 13; 6; 6; 10; 1; 7; 14; 1; 6; 10; 7; 4;
    3; 3; 10; 8; 8; 14; 8; 4; 7; 13; 5; 5; 1; 4; 2; 2; 5; 9; 9; 5;
    4; 4; 3; 2; 5; 1; 3; 11; 2; 4; 14; 12; 10; 14; 5; 4; 8; 4; 1; 4;
    11; 4; 10; 13; 8; 5; 3; 2; 1; 11; 4; 5; 9; 5; 7; 7; 12; 11; 4; 9;
    8; 2; 4; 7; 14; 10; 1; 13; 7; 1; 13; 3; 7; 7; 15; 7; 6; 13; 7; 9
  |]

let test_corpus_passes_parity () =
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let pinned = pinned_corpus.(seed) in
      let fix = logical (fst (Passes.optimize b)) in
      let st = logical (Stream_opt.optimize_b ~window:4096 b) in
      if fix > pinned || st <> fix then
        Alcotest.failf "seed %d: fixpoint %d, streamed %d vs pinned %d" seed fix
          st pinned)
    corpus_seeds

let test_corpus_never_deepens () =
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let b' = Stream_opt.optimize_b b in
      if Depth.depth b' > Depth.depth b then
        Alcotest.failf "seed %d: depth %d -> %d" seed (Depth.depth b)
          (Depth.depth b'))
    corpus_seeds

let test_corpus_window_monotone () =
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let red w = logical b - logical (Stream_opt.optimize_b ~window:w b) in
      let r8 = red 8 and r32 = red 32 and r256 = red 256 in
      if not (r8 <= r32 && r32 <= r256) then
        Alcotest.failf "seed %d: reductions not monotone in window: %d %d %d"
          seed r8 r32 r256)
    corpus_seeds

(* ------------------------------------------------------------------ *)
(* Print -> parse of streamed-optimized output                          *)

let test_streamed_output_roundtrips () =
  List.iter
    (fun seed ->
      let b' = Stream_opt.optimize_b (corpus_circuit seed) in
      let s = Printer.to_string b' in
      let b'' = Parser.parse s in
      Circuit.validate_b b'';
      checks (Fmt.str "reprint fixpoint (seed %d)" seed) s (Printer.to_string b''))
    (List.init 50 (fun i -> 4 * i))

let test_streamed_printer_matches_optimize_b () =
  (* composing the transformer into [Sink.printer] must emit exactly the
     text of the collected-and-printed optimized circuit: surviving
     gates are never reordered *)
  List.iter
    (fun seed ->
      let b = corpus_circuit seed in
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      let () = Sink.drive b (Stream_opt.sink (Sink.printer ppf)) in
      Format.pp_print_flush ppf ();
      checks
        (Fmt.str "streamed text (seed %d)" seed)
        (Printer.to_string (Stream_opt.optimize_b b))
        (Buffer.contents buf))
    [ 0; 7; 42; 96; 123 ]

(* ------------------------------------------------------------------ *)
(* Golden agreement with the materialized optimizer on the paper's      *)
(* workloads (the CLI diffs the same pairs in CI)                       *)

let test_golden_bwt () =
  let p = { Algo_bwt.n = 3; s = 2; dt = Algo_bwt.default_params.Algo_bwt.dt } in
  let mat =
    fst (Passes.optimize (Algo_bwt.generate ~p ~which:`Orthodox ()))
  in
  let (summary, depth), _ =
    Circ.run_streaming_unit
      (Algo_bwt.whole ~p (Algo_bwt.orthodox_oracle p))
      (Stream_opt.sink (Sink.tee (Sink.gatecount ()) (Sink.depth ())))
  in
  checks "bwt gatecount summaries byte-identical"
    (Fmt.str "%a" Gatecount.pp_summary (Gatecount.summarize mat))
    (Fmt.str "%a" Gatecount.pp_summary summary);
  checki "bwt depth identical" (Depth.depth mat) depth

let test_golden_tf () =
  let p = { Algo_tf.Oracle.l = 3; n = 2; r = 2 } in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let mat = fst (Passes.optimize b) in
  let summary, depth =
    Sink.drive b (Stream_opt.sink (Sink.tee (Sink.gatecount ()) (Sink.depth ())))
  in
  checks "tf gatecount summaries byte-identical"
    (Fmt.str "%a" Gatecount.pp_summary (Gatecount.summarize mat))
    (Fmt.str "%a" Gatecount.pp_summary summary);
  checki "tf depth identical" (Depth.depth mat) depth

(* ------------------------------------------------------------------ *)
(* The N3 table, pinned                                                 *)

(* Logical counts, depths and optimized gatecount summaries of the N3
   rows (EXPERIMENTS.md): BWT n=3 s=1 orthodox, template and QCL
   baseline; TF l=4 n=3 r=2 pow17 and mul. Recorded from the
   materialized optimizer it replaced, except the QCL summary: the one
   unpaired X on a wire survives at the other end of six controlled NOTs
   that use that wire as a control, so their polarities are flipped and
   two [Not] gates move from the [controls 0+1] class to [controls 1];
   total and depth are unchanged. *)
let pinned_n3 =
  [
    ( "orthodox", 200, 117, 86, 55,
      "Aggregated gate count:\n21: \"Init0\"\n1: \"Init1\"\n6: \"Meas\"\n9: \"Not\"\n1: \"Not\", controls 0+5\n17: \"Not\", controls 1\n64: \"Not\", controls 1+1\n16: \"Term0\"\n12: \"W\"\n12: \"W*\"\n1: \"exp(-i%Z)\"\n1: \"exp(-i%Z)\", controls 0+1\nTotal gates: 161\nInputs: 0\nOutputs: 6\nQubits in circuit: 14\n" );
    ( "template", 504, 178, 137, 61,
      "Aggregated gate count:\n52: \"Init0\"\n10: \"Init1\"\n6: \"Meas\"\n2: \"Not\", controls 0+5\n102: \"Not\", controls 1\n24: \"Not\", controls 1+1\n24: \"Not\", controls 2\n47: \"Term0\"\n9: \"Term1\"\n12: \"W\"\n12: \"W*\"\n1: \"exp(-i%Z)\"\n1: \"exp(-i%Z)\", controls 0+1\nTotal gates: 302\nInputs: 0\nOutputs: 6\nQubits in circuit: 30\n" );
    ( "qcl", 988, 508, 261, 192,
      "Aggregated gate count:\n36: \"Init0\"\n1: \"Init1\"\n6: \"Meas\"\n12: \"Not\"\n8: \"Not\", controls 0+1\n4: \"Not\", controls 0+2\n286: \"Not\", controls 1\n146: \"Not\", controls 1+1\n24: \"W\"\n24: \"W*\"\n4: \"exp(-i%Z)\", controls 1\nTotal gates: 551\nInputs: 0\nOutputs: 37\nQubits in circuit: 37\n" );
    ( "pow17", 3196, 3172, 2269, 2269,
      "Aggregated gate count:\n792: \"Init0\"\n580: \"Not\", controls 1\n2592: \"Not\", controls 2\n788: \"Term0\"\nTotal gates: 4752\nInputs: 4\nOutputs: 8\nQubits in circuit: 68\n" );
    ( "mul", 348, 348, 251, 251,
      "Aggregated gate count:\n88: \"Init0\"\n60: \"Not\", controls 1\n288: \"Not\", controls 2\n84: \"Term0\"\nTotal gates: 520\nInputs: 8\nOutputs: 12\nQubits in circuit: 40\n" );
  ]

let n3_circuit = function
  | "orthodox" | "template" | "qcl" as name -> (
      let p = { Algo_bwt.default_params with Algo_bwt.n = 3; s = 1 } in
      match name with
      | "orthodox" -> Algo_bwt.generate ~p ~which:`Orthodox ()
      | "template" -> Algo_bwt.generate ~p ~which:`Template ()
      | _ -> Qcl_baseline.Bwt_qcl.generate ~p ())
  | name -> (
      let p = { Algo_tf.Oracle.l = 4; n = 3; r = 2 } in
      match name with
      | "pow17" -> Algo_tf.Qwtfp.generate_pow17 ~p ()
      | _ -> Algo_tf.Qwtfp.generate_mul ~p ())

let test_pinned_n3 () =
  List.iter
    (fun (name, before, after, d0, d1, summary) ->
      let b = n3_circuit name in
      let b' = fst (Passes.optimize b) in
      checki (name ^ " logical before") before (logical b);
      checki (name ^ " logical after") after (logical b');
      checki (name ^ " depth before") d0 (Depth.depth b);
      checki (name ^ " depth after") d1 (Depth.depth b');
      checks (name ^ " summary") summary
        (Fmt.str "%a" Gatecount.pp_summary (Gatecount.summarize b')))
    pinned_n3

(* ------------------------------------------------------------------ *)
(* One commutation rule                                                 *)

(* Wide calls (inputs and outputs overlapping, listed out of order,
   ~32 distinct wires) beside narrow gates on the same wires, so the
   window's sort and dedup of a long wire list are checked too. *)
let wide_gates seed =
  let rng = Random.State.make [| seed |] in
  let shuffled_subset () =
    List.init 48 Fun.id
    |> List.filter (fun _ -> Random.State.int rng 3 > 0)
    |> List.map (fun w -> (Random.State.bits rng, w))
    |> List.sort compare |> List.map snd
  in
  Array.init 8 (fun i ->
      if i mod 2 = 0 then
        Gate.Subroutine
          { name = "wide"; inv = false; inputs = shuffled_subset ();
            outputs = shuffled_subset (); controls = [] }
      else
        let w = Random.State.int rng 64 in
        Gate.Gate
          { name = "not"; inv = false; targets = [ w ];
            controls = [ Gate.pos_control ((w + 1) mod 64) ] })

(* The window tests commutation on entries (cached sorted wire arrays
   and diagonality); it must be [Gate.commutes] exactly. Every ordered
   pair of gates of a corpus circuit, from the general, rotation and
   classical generators, and of [wide_gates]. *)
let prop_entry_commutes =
  QCheck2.Test.make ~name:"window commutation = Gate.commutes on corpus pairs"
    ~count:200 ~print:string_of_int (QCheck2.Gen.int_range 0 199) (fun seed ->
      List.for_all
        (fun gs ->
          Array.for_all
            (fun a ->
              Array.for_all
                (fun g -> Stream_opt.entry_commutes a g = Gate.commutes a g)
                gs)
            gs)
        (wide_gates seed
        :: List.map
             (fun (b : Circuit.b) -> b.Circuit.main.Circuit.gates)
             [
               corpus_circuit seed;
               Gen.circuit_of_program ~n:4
                 (Gen.sample ~seed (Gen.rot_program_gen ~n:4 ()));
               Gen.circuit_of_program ~n:5
                 (Gen.sample ~seed (Gen.classical_program_gen ~n:5 ()));
             ]))

(* ------------------------------------------------------------------ *)
(* Box redefinition                                                     *)

(* One event stream that defines "body", calls it, redefines it and
   calls it again (the [test_serve] box-alias stream). The first call is
   still held in the window when the second definition arrives; each
   call must still expand downstream to the body in force when it was
   made. *)
let test_redefinition_flushes_window () =
  let shape = Qdata.list_of 2 Qdata.qubit in
  let boxed ops =
    fst
      (Circ.generate ~in_:shape (fun ql ->
           box "body" ~in_:shape ~out:shape (Gen.program_fun ops) ql))
  in
  let b1 = boxed [ Gen.H 0; Gen.CNot (0, 1) ] in
  let b2 = boxed [ Gen.X 0; Gen.T 1 ] in
  let both (s : 'r Sink.t) =
    s.Sink.on_inputs b1.Circuit.main.Circuit.inputs;
    List.iter
      (fun (b : Circuit.b) ->
        List.iter
          (fun n -> s.Sink.on_subroutine_exit n (Circuit.find_sub b n))
          b.Circuit.sub_order;
        Array.iter s.Sink.on_gate b.Circuit.main.Circuit.gates)
      [ b1; b2 ];
    s.Sink.finish b1.Circuit.main.Circuit.outputs
  in
  let expanded b = Sink.drive b (Stream_opt.sink (Sink.unbox (Sink.gates ()))) in
  check "each held call expands the body in force" true
    (both (Stream_opt.sink (Sink.unbox (Sink.gates ())))
    = expanded b1 @ expanded b2)

(* ------------------------------------------------------------------ *)
(* Printed output per window, pinned                                    *)

(* MD5 of the printed [optimize_b ~window] output, concatenated over a
   circuit list. Window 1 retires every entry at the next arrival; 2, 3
   and 17 wrap the ring many times; 256 is the default; [max_int] grows
   it to the whole circuit. *)
let window_digest window bs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun b -> Buffer.add_string buf (Printer.to_string (Stream_opt.optimize_b ~window b)))
    bs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let pinned_windows =
  [
    ( "corpus", lazy (List.map corpus_circuit corpus_seeds),
      [
        (1, "0ffd85dc9d5a9632470e936e7c3a2b4f");
        (2, "df3b9011a4830fbb570f895b521b83a1");
        (3, "0a3e3938acda15e11c4ffd5b4f7e9859");
        (17, "b47fcdb8c92fa81bdbe4eec1b18d17ea");
        (256, "b47fcdb8c92fa81bdbe4eec1b18d17ea");
        (max_int, "b47fcdb8c92fa81bdbe4eec1b18d17ea");
      ] );
    ( "bwt",
      lazy
        (let p = { Algo_bwt.default_params with Algo_bwt.n = 3; s = 2 } in
         [ Algo_bwt.generate ~p ~which:`Orthodox (); Algo_bwt.generate ~p ~which:`Template () ]),
      [
        (1, "33dc932fd734a2785e7737154dad5389");
        (2, "55134e35725ccb239f3a9a85e5559d2f");
        (3, "55134e35725ccb239f3a9a85e5559d2f");
        (17, "877535507f2da04a83bad3d6b3ad932e");
        (256, "4e3553d9aad5937f278a48f626b4f9a8");
        (max_int, "4e3553d9aad5937f278a48f626b4f9a8");
      ] );
    ( "tf",
      lazy
        (let p = { Algo_tf.Oracle.l = 3; n = 2; r = 2 } in
         [ Algo_tf.Qwtfp.generate_pow17 ~p () ]),
      [
        (1, "22994873b99537ff84a2c2a8bd2e1ee6");
        (2, "22994873b99537ff84a2c2a8bd2e1ee6");
        (3, "1ebfde2472f6d71728725d2ecfda1694");
        (17, "2a720634eb4d70aacaa7227308e7178d");
        (256, "6bab8904562242abaaf0701e124259c3");
        (max_int, "6bab8904562242abaaf0701e124259c3");
      ] );
  ]

let test_pinned_window_digests () =
  List.iter
    (fun (name, bs, pins) ->
      List.iter
        (fun (window, digest) ->
          checks
            (Fmt.str "%s printed at window %d" name window)
            digest
            (window_digest window (Lazy.force bs)))
        pins)
    pinned_windows

(* Logical gates left per window, summed over each circuit list: a
   change may lower these, never raise them. One stage at window 2 or 3
   holds 2 or 3 live gates, so it reduces less than four stacked stages
   of that window did (corpus 1,573 at window 2 and 1,540 at 3, TF 1,747
   at 3); from window 17 up it reduces as much or more. *)
let pinned_counts =
  [
    ("corpus", [ (1, 2274); (2, 2001); (3, 1752); (17, 1450); (256, 1450) ]);
    ("bwt", [ (1, 1354); (2, 1020); (3, 1020); (17, 835); (256, 813) ]);
    ("tf", [ (1, 1749); (2, 1749); (3, 1749); (17, 1743); (256, 1731) ]);
  ]

let test_pinned_window_counts () =
  List.iter
    (fun (name, bs, _) ->
      List.iter
        (fun (window, most) ->
          let n =
            List.fold_left
              (fun acc b -> acc + logical (Stream_opt.optimize_b ~window b))
              0 (Lazy.force bs)
          in
          if n > most then
            Alcotest.failf "%s at window %d keeps %d logical gates, pinned at most %d"
              name window n most)
        (List.assoc name pinned_counts))
    pinned_windows

(* One stage is a fixpoint: a second stage over its output prints the
   same, at the default window, a corpus-covering one and an unbounded
   one — on the corpus, the BWT/TF circuits pinned above and random
   programs. *)
let fixpoint_windows = [ 256; 4096; max_int ]

let stage_again window b =
  let once = Stream_opt.optimize_b ~window b in
  Printer.to_string once = Printer.to_string (Stream_opt.optimize_b ~window once)

let test_one_stage_is_fixpoint () =
  List.iter
    (fun (name, bs, _) ->
      List.iteri
        (fun i b ->
          List.iter
            (fun window ->
              if not (stage_again window b) then
                Alcotest.failf "%s[%d]: a second stage at window %d changed the output"
                  name i window)
            fixpoint_windows)
        (Lazy.force bs))
    pinned_windows

let prop_one_stage_is_fixpoint =
  QCheck2.Test.make ~name:"one stage is a fixpoint on random programs" ~count:300
    (Gen.program_gen ~n:4 ()) (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      List.for_all (fun window -> stage_again window b) fixpoint_windows)

(* ------------------------------------------------------------------ *)

let suite =
  [
    Alcotest.test_case "stream: H pair cancels" `Quick test_stream_cancel_pair;
    Alcotest.test_case "stream: constant control deletes gate" `Quick
      test_stream_const_control;
    Alcotest.test_case "stream: X sandwich flips controls" `Quick
      test_stream_flip_sandwich;
    Alcotest.test_case "stage: constants restored after a removal" `Quick
      test_stage_restores_constants;
    Alcotest.test_case "stage: no constant restored past the window" `Quick
      test_stage_restores_only_inside_window;
    Alcotest.test_case "stage: fused entry re-examined" `Quick
      test_stage_reexamines_fused_entry;
    Alcotest.test_case "stage: only live entries fill the window" `Quick
      test_stage_counts_live_entries;
    Alcotest.test_case "retirement: cancel across diagonal control" `Quick
      test_retire_cancel_across_control;
    Alcotest.test_case "retirement: blocked across CNOT target" `Quick
      test_retire_blocked_across_target;
    Alcotest.test_case "retirement: retired partner out of reach" `Quick
      test_retired_partner_is_out_of_reach;
    Alcotest.test_case "box body optimized once, calls intact" `Quick
      test_box_body_optimized;
    Alcotest.test_case "drive/collect replay identity" `Quick
      test_drive_circuit_roundtrip;
    Alcotest.test_case "corpus: statevector equivalent (200)" `Quick
      test_corpus_statevector;
    Alcotest.test_case "corpus: classical bit-for-bit (200)" `Quick
      test_corpus_classical;
    Alcotest.test_case "corpus: known inputs stay equivalent (200)" `Quick
      test_corpus_known_inputs;
    Alcotest.test_case "corpus: parity with Passes at full window" `Quick
      test_corpus_passes_parity;
    Alcotest.test_case "corpus: never deepens" `Quick test_corpus_never_deepens;
    Alcotest.test_case "corpus: reduction monotone in window" `Quick
      test_corpus_window_monotone;
    Alcotest.test_case "streamed output print->parse roundtrip" `Quick
      test_streamed_output_roundtrips;
    Alcotest.test_case "streamed printer = optimize_b printed" `Quick
      test_streamed_printer_matches_optimize_b;
    Alcotest.test_case "golden: bwt matches materialized -O" `Quick
      test_golden_bwt;
    Alcotest.test_case "golden: tf matches materialized -O" `Quick test_golden_tf;
    Alcotest.test_case "pinned: N3 rows of the fixpoint" `Quick test_pinned_n3;
    QCheck_alcotest.to_alcotest prop_entry_commutes;
    Alcotest.test_case "box redefinition flushes held calls" `Quick
      test_redefinition_flushes_window;
    Alcotest.test_case "pinned: printed output per window" `Quick
      test_pinned_window_digests;
    Alcotest.test_case "pinned: gate counts per window" `Quick
      test_pinned_window_counts;
    Alcotest.test_case "one stage is a fixpoint: corpus, BWT, TF" `Quick
      test_one_stage_is_fixpoint;
    QCheck_alcotest.to_alcotest prop_one_stage_is_fixpoint;
  ]
