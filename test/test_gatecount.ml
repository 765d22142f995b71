(* Tests for the hierarchical resource counter — the machinery behind the
   paper's trillion-gate counts (4.4.4, 5.4). *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* exponential blowup: box k calls box (k-1) twice *)
let rec tower k q =
  if k = 0 then hadamard q
  else
    box (Fmt.str "tower%d" k) ~in_:Qdata.qubit ~out:Qdata.qubit
      (fun q ->
        let* q = tower (k - 1) q in
        tower (k - 1) q)
      q

let test_exponential_counting () =
  let b = fst (Circ.generate ~in_:Qdata.qubit (tower 40)) in
  let counts = Gatecount.aggregate b in
  (* 2^40 Hadamards, counted without inlining *)
  checki "2^40 hadamards" (1 lsl 40) (Gatecount.find_kind counts "H");
  (* the materialised representation stays tiny *)
  check "small representation" true (List.length b.Circuit.sub_order = 40)

let test_trillions_fast () =
  let t0 = Sys.time () in
  let b = fst (Circ.generate ~in_:Qdata.qubit (tower 45)) in
  let counts = Gatecount.aggregate b in
  let elapsed = Sys.time () -. t0 in
  checki "2^45 = 35 trillion gates" (1 lsl 45) (Gatecount.total counts);
  check "counted in well under a second" true (elapsed < 1.0)

let test_inverse_subroutine_counts () =
  (* a box containing Init/T: its inverse counts Term/T* *)
  let sub =
    box "itsub" ~in_:Qdata.qubit ~out:(Qdata.pair Qdata.qubit Qdata.qubit)
      (fun q ->
        let* a = qinit_bit false in
        let* a = gate_T a in
        return (q, a))
  in
  let b =
    fst
      (Circ.generate ~in_:Qdata.qubit (fun q ->
           let* q, a = sub q in
           (* uncompute via the reversed function *)
           let* q =
             reverse_fun ~in_:Qdata.qubit ~out:(Qdata.pair Qdata.qubit Qdata.qubit)
               sub (q, a)
           in
           return q))
  in
  let counts = Gatecount.aggregate b in
  checki "one init" 1 (Gatecount.find_kind counts "Init0");
  checki "one term" 1 (Gatecount.find_kind counts "Term0");
  checki "one T" 1
    (Gatecount.get counts
       { Gatecount.kind = "T"; inverted = false; pos_controls = 0; neg_controls = 0 });
  checki "one T*" 1
    (Gatecount.get counts
       { Gatecount.kind = "T"; inverted = true; pos_controls = 0; neg_controls = 0 })

let test_controlled_call_counts () =
  (* a controlled subroutine call adds the control to every body gate *)
  let sub =
    box "csub" ~in_:Qdata.qubit ~out:Qdata.qubit (fun q ->
        let* q = hadamard q in
        let* () = qnot_ q in
        return q)
  in
  let b =
    fst
      (Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (c, q) ->
           with_controls [ ctl c ] (sub q)))
  in
  let counts = Gatecount.aggregate b in
  checki "controlled H" 1
    (Gatecount.get counts
       { Gatecount.kind = "H"; inverted = false; pos_controls = 1; neg_controls = 0 });
  checki "controlled not" 1
    (Gatecount.get counts
       { Gatecount.kind = "Not"; inverted = false; pos_controls = 1; neg_controls = 0 })

let test_peak_wires_hierarchical () =
  (* a subroutine that needs 3 local ancillas at once: peak = caller live +
     callee peak *)
  let sub =
    box "wide" ~in_:Qdata.qubit ~out:Qdata.qubit (fun q ->
        with_ancilla_init [ false; false; false ] (fun _ancs -> return q))
  in
  let b =
    fst
      (Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (a, q) ->
           let* q = sub q in
           return (a, q)))
  in
  (* 2 inputs live + 3 ancillas inside the call *)
  checki "peak" 5 (Gatecount.peak_wires b)

let test_peak_wires_flat () =
  let b =
    fst
      (Circ.generate_unit
         (let* a = qinit_bit false in
          let* b = qinit_bit false in
          let* () = qterm_bit false b in
          let* c = qinit_bit false in
          let* () = qterm_bit false c in
          qterm_bit false a))
  in
  checki "flat peak" 2 (Gatecount.peak_wires b)

let test_summary_fields () =
  let b =
    fst
      (Circ.generate ~in_:Qdata.qubit (fun q ->
           let* q = hadamard q in
           let* m = measure_qubit q in
           return m))
  in
  let s = Gatecount.summarize b in
  checki "total" 2 s.Gatecount.total;
  checki "logical excludes meas" 1 s.Gatecount.total_logical;
  checki "inputs" 1 s.Gatecount.inputs;
  checki "outputs" 1 s.Gatecount.outputs

let test_quipper_print_format () =
  let b =
    fst
      (Circ.generate ~in_:(Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit)
         (fun (a, b, c) ->
           let* () = qnot_ c |> controlled [ ctl a; ctl_neg b ] in
           return (a, b, c)))
  in
  let s = Fmt.str "%a" Gatecount.pp (Gatecount.aggregate b) in
  check "a+b control format" true (Astring_contains.contains s "\"Not\", controls 1+1")

(* Golden output: the full summary block for a paper algorithm circuit
   (BWT with the orthodox oracle at the default n=3, s=1), pinned
   verbatim. Catches any drift in counting or in Quipper's format. *)
let test_summary_golden () =
  let p = { Algo_bwt.default_params with Algo_bwt.n = 3; s = 1 } in
  let b = Algo_bwt.generate ~p ~which:`Orthodox () in
  let got = Fmt.str "%a" Gatecount.pp_summary (Gatecount.summarize b) in
  let expected =
    String.concat "\n"
      [
        "Aggregated gate count:";
        "37: \"Init0\"";
        "1: \"Init1\"";
        "6: \"Meas\"";
        "12: \"Not\"";
        "4: \"Not\", controls 0+1";
        "2: \"Not\", controls 0+5";
        "42: \"Not\", controls 1";
        "88: \"Not\", controls 1+1";
        "32: \"Term0\"";
        "24: \"W\"";
        "24: \"W*\"";
        "4: \"exp(-i%Z)\", controls 0+1";
        "Total gates: 276";
        "Inputs: 0";
        "Outputs: 6";
        "Qubits in circuit: 14";
      ]
  in
  Alcotest.(check string) "golden BWT orthodox summary" expected (String.trim got)

(* Same idea for three more paper algorithms, at sizes small enough to
   keep [dune runtest] fast: the TF pow17 arithmetic subroutine, the BF
   oracle on a 3x3 board, and the USV phase-estimation skeleton. *)
let check_golden name b expected_lines =
  let got = Fmt.str "%a" Gatecount.pp_summary (Gatecount.summarize b) in
  Alcotest.(check string) name (String.concat "\n" expected_lines) (String.trim got)

let test_summary_golden_tf () =
  check_golden "golden TF pow17 summary"
    (Algo_tf.Qwtfp.generate_pow17 ())
    [
      "Aggregated gate count:";
      "808: \"Init0\"";
      "604: \"Not\", controls 1";
      "2592: \"Not\", controls 2";
      "804: \"Term0\"";
      "Total gates: 4808";
      "Inputs: 4";
      "Outputs: 8";
      "Qubits in circuit: 56";
    ]

let test_summary_golden_bf () =
  check_golden "golden BF oracle summary"
    (Algo_bf.generate_oracle ~board:{ Algo_bf.width = 3; height = 3 } ())
    [
      "Aggregated gate count:";
      "90: \"Init0\"";
      "290: \"Init1\"";
      "580: \"Not\", controls 0+2";
      "7: \"Not\", controls 1";
      "162: \"Not\", controls 2";
      "90: \"Term0\"";
      "290: \"Term1\"";
      "Total gates: 1509";
      "Inputs: 10";
      "Outputs: 10";
      "Qubits in circuit: 390";
    ]

let test_summary_golden_usv () =
  check_golden "golden USV summary"
    (Algo_usv.generate ())
    [
      "Aggregated gate count:";
      "12: \"H\"";
      "6: \"Init0\"";
      "1: \"Init1\"";
      "6: \"Meas\"";
      "27: \"Rz\", controls 1";
      "1: \"Term1\"";
      "Total gates: 53";
      "Inputs: 0";
      "Outputs: 6";
      "Qubits in circuit: 7";
    ]

let prop_aggregate_equals_inline =
  QCheck2.Test.make ~name:"aggregate counts = inlined counts (random circuits)"
    ~count:60 (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let agg = Gatecount.aggregate b in
      let flat = Gatecount.shallow (Circuit.inline b) in
      Gatecount.Counts.equal ( = ) agg flat)

(* A box tree [levels] deep, each box calling the one below twice, the
   bottom one a Hadamard: 2^(levels-1) gates and as many steps of depth.
   Built as a [Circuit.b] directly, so nothing on the way counts. *)
let doubling_tree levels =
  let w = [ Wire.qw 0 ] in
  let name k = Fmt.str "level%d" k in
  let call k =
    Gate.Subroutine
      { name = name k; inv = false; inputs = [ 0 ]; outputs = [ 0 ]; controls = [] }
  in
  let body k =
    if k = 0 then [| Gate.Gate { name = "H"; inv = false; targets = [ 0 ]; controls = [] } |]
    else [| call (k - 1); call (k - 1) |]
  in
  let subs =
    List.fold_left
      (fun subs k ->
        Circuit.Namespace.add (name k)
          { Circuit.circ = { Circuit.inputs = w; gates = body k; outputs = w };
            controllable = true }
          subs)
      Circuit.Namespace.empty
      (List.init levels Fun.id)
  in
  { Circuit.main = { Circuit.inputs = w; gates = [| call (levels - 1) |]; outputs = w };
    subs;
    sub_order = List.init levels name }

let test_overflow_raises () =
  let direct = doubling_tree 64 in
  let text = Printer.to_string direct in
  let parsed = Parser.parse text in
  Alcotest.(check string) "printer/parser roundtrip" text (Printer.to_string parsed);
  List.iter
    (fun (how, b) ->
      let raises what f =
        match f () with
        | exception Errors.Error (Errors.Invalid msg) ->
            check (Fmt.str "%s: %s names --estimate" how what) true
              (Astring_contains.contains msg "--estimate")
        | _ -> Alcotest.failf "%s: %s wrapped instead of raising" how what
      in
      raises "aggregate" (fun () -> Gatecount.aggregate b);
      raises "summarize" (fun () -> Gatecount.summarize b);
      raises "streamed gatecount" (fun () -> Sink.drive b (Sink.gatecount ()));
      raises "depth" (fun () -> Depth.depth b);
      raises "streamed depth" (fun () -> Sink.drive b (Sink.depth ()));
      (* the exact figures are one flag away *)
      let v = Quipper_estimate.Estimate.of_circuit b in
      let exact = "9223372036854775808" in
      check (how ^ ": estimate total") true
        (Quipper_estimate.Wide.to_string (Quipper_estimate.Estimate.total v) = exact);
      check (how ^ ": estimate depth") true
        (Quipper_estimate.Wide.to_string (Quipper_estimate.Estimate.depth_bound v)
        = exact))
    [ ("direct", direct); ("parsed", parsed) ];
  (* every key fits, the sum does not *)
  let counts = Gatecount.aggregate (doubling_tree 62) in
  checki "2^61 fits" (1 lsl 61) (Gatecount.total counts);
  let t = { Gatecount.kind = "T"; inverted = false; pos_controls = 0; neg_controls = 0 } in
  match Gatecount.total (Gatecount.Counts.add t (1 lsl 61) counts) with
  | exception Errors.Error (Errors.Invalid msg) ->
      check "total names --estimate" true (Astring_contains.contains msg "--estimate")
  | n -> Alcotest.failf "total wrapped to %d" n

let suite =
  [
    Alcotest.test_case "exponential aggregate counting" `Quick test_exponential_counting;
    Alcotest.test_case "trillions counted fast" `Quick test_trillions_fast;
    Alcotest.test_case "inverse subroutine counts" `Quick test_inverse_subroutine_counts;
    Alcotest.test_case "controlled call counts" `Quick test_controlled_call_counts;
    Alcotest.test_case "hierarchical peak wires" `Quick test_peak_wires_hierarchical;
    Alcotest.test_case "flat peak wires" `Quick test_peak_wires_flat;
    Alcotest.test_case "summary fields" `Quick test_summary_fields;
    Alcotest.test_case "Quipper count format" `Quick test_quipper_print_format;
    Alcotest.test_case "golden summary (BWT orthodox)" `Quick test_summary_golden;
    Alcotest.test_case "golden summary (TF pow17)" `Quick test_summary_golden_tf;
    Alcotest.test_case "golden summary (BF oracle 3x3)" `Quick test_summary_golden_bf;
    Alcotest.test_case "golden summary (USV)" `Quick test_summary_golden_usv;
    QCheck_alcotest.to_alcotest prop_aggregate_equals_inline;
    Alcotest.test_case "overflow raises, never wraps" `Quick test_overflow_raises;
  ]
