(* Round-trip tests for circuit (de)serialisation: Printer -> Parser. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ

let check = Alcotest.(check bool)
let checks = Alcotest.(check string)

let roundtrip b =
  let s = Printer.to_string b in
  let b' = Parser.parse s in
  (s, b')

let test_simple_roundtrip () =
  let b, _ =
    Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (a, b) ->
        let* a = hadamard a in
        let* () = cnot ~control:a ~target:b in
        let* () = rot_expZt 0.375 b in
        let* () = qnot_ a |> controlled [ ctl_neg b ] in
        let* m = measure_qubit b in
        let* () = qnot_ a |> controlled [ ctl_bit m ] in
        return (a, m))
  in
  let s, b' = roundtrip b in
  checks "print-parse-print idempotent" s (Printer.to_string b');
  Circuit.validate_b b'

let test_gate_variety_roundtrip () =
  let b, _ =
    Circ.generate ~in_:(Qdata.triple Qdata.qubit Qdata.qubit Qdata.qubit)
      (fun (a, b, c) ->
        let* () = gate_W a b in
        let* () = gate_W_inv b c in
        let* () = swap a c in
        let* _ = gate_T a in
        let* () = gate_T_inv a in
        let* () = gate_R 3 b in
        let* () = global_phase 0.25 in
        let* x = qinit_bit true in
        let* () = comment_with_label "checkpoint" Qdata.qubit x "anc" in
        let* () = qterm_bit true x in
        let* () = qdiscard c in
        return (a, b))
  in
  let s, b' = roundtrip b in
  checks "idempotent over all gate kinds" s (Printer.to_string b')

let test_subroutine_roundtrip () =
  let p = { Algo_tf.Oracle.l = 3; n = 2; r = 1 } in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let s, b' = roundtrip b in
  checks "boxed circuit with comments roundtrips" s (Printer.to_string b');
  Circuit.validate_b b';
  (* semantics preserved: same classical behaviour *)
  let flat = Circuit.inline b and flat' = Circuit.inline b' in
  check "same inlined gate count" true
    (Array.length flat.Circuit.gates = Array.length flat'.Circuit.gates);
  check "same aggregated counts" true
    (Gatecount.Counts.equal ( = ) (Gatecount.aggregate b) (Gatecount.aggregate b'))

let test_cgate_roundtrip () =
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        let* m = measure_qubit q in
        let* n = cgate_not m in
        let* x = cgate_xor [ m; n ] in
        return x)
  in
  let s, b' = roundtrip b in
  checks "classical gates roundtrip" s (Printer.to_string b')

let test_parse_file () =
  let b, _ =
    Circ.generate ~in_:Qdata.qubit (fun q ->
        let* q = hadamard q in
        return q)
  in
  let path = Filename.temp_file "quipper" ".qc" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (Printer.to_string b);
      close_out oc;
      let b' = Parser.parse_file path in
      checks "file roundtrip" (Printer.to_string b) (Printer.to_string b'))

let test_parse_errors () =
  let expect_fail s =
    match Parser.parse s with
    | exception Errors.Error (Errors.Invalid _) -> ()
    | _ -> Alcotest.failf "expected a parse error on %S" s
  in
  expect_fail "garbage";
  expect_fail "Inputs: 0:Qubit\nQGate[oops](0)\nOutputs: 0:Qubit";
  expect_fail "Inputs: 0:Qubit\nQGate[\"H\"](0)";
  expect_fail "Inputs: none\nOutputs: none\nSubroutine: f";
  (* a box that calls itself, directly or through another box, parses
     as text but has no finite expansion: rejected, naming the cycle *)
  let sub name callee =
    Printf.sprintf
      "Subroutine: %S\nControllable: true\nInputs: 1:Qubit\n\
       Subroutine[%S](1) -> (1)\nOutputs: 1:Qubit\n"
      name callee
  in
  let main = "Inputs: 0:Qubit\nSubroutine[\"f\"](0) -> (0)\nOutputs: 0:Qubit\n" in
  let expect_cycle text cycle =
    match Parser.parse text with
    | exception Errors.Error (Errors.Invalid msg) ->
        check ("error names " ^ cycle) true (Astring_contains.contains msg cycle)
    | _ -> Alcotest.failf "expected a recursion error naming %s" cycle
  in
  expect_cycle (main ^ sub "f" "f") "f -> f";
  expect_cycle (main ^ sub "f" "g" ^ sub "g" "f") "f -> g -> f";
  (* [validate_b] rejects the same namespaces built without the parser *)
  let ok = Parser.parse (main ^ sub "f" "g" ^ sub "g" "h") in
  let recursive =
    { ok with
      Circuit.subs =
        Circuit.Namespace.add "g"
          (Circuit.Namespace.find "f" ok.Circuit.subs)
          ok.Circuit.subs }
  in
  (match Circuit.validate_b recursive with
  | exception Errors.Error (Errors.Invalid msg) ->
      check "validate_b names the cycle" true
        (Astring_contains.contains msg "g -> g")
  | () -> Alcotest.fail "validate_b accepted a recursive box")

let prop_roundtrip_random =
  QCheck2.Test.make ~name:"print-parse-print idempotent on random circuits"
    ~count:80 (Gen.program_gen ~n:4 ())
    (fun ops ->
      let b = Gen.circuit_of_program ~n:4 ops in
      let s = Printer.to_string b in
      let b' = Parser.parse s in
      s = Printer.to_string b')

(* ------------------------------------------------------------------ *)
(* The corpus with every line kind, and hostile mutations of it        *)

(* A testgen program boxed and called three ways (plain, under classical
   controls, inverted), around a measurement, classical logic and a
   discard: every line kind the printer writes. *)
let rich_circuit ops =
  let shape = Qdata.list_of 3 Qdata.qubit in
  let body = Circ.box "body" ~in_:shape ~out:shape (Gen.program_fun ops) in
  let b, _ =
    Circ.generate ~in_:shape (fun ql ->
        let* ql = body ql in
        let* a = qinit_bit false in
        let* a = hadamard a in
        let* m = measure_qubit a in
        let* k = cgate_not m in
        let* ql = body ql |> controlled [ ctl_bit m; ctl_bit_neg k ] in
        let* ql = reverse_simple shape body ql in
        let* () = cdiscard k in
        return (ql, m))
  in
  b

let prop_roundtrip_rich =
  QCheck2.Test.make
    ~name:"print-parse-print idempotent with boxes and classical controls"
    ~count:40 (Gen.rot_program_gen ~n:3 ())
    (fun ops ->
      let s = Printer.to_string (rich_circuit ops) in
      s = Printer.to_string (Parser.parse s))

type mutation = Flip of int * char | Truncate of int | Swap_tokens of int * int

let mutation_gen =
  let open QCheck2.Gen in
  let pos = int_bound 10_000 in
  let byte =
    oneof [ oneofl (List.of_seq (String.to_seq "()[]{},;:*+-c\"\\ \n0123456789.eQCx")); char ]
  in
  frequency
    [
      (3, pair pos byte >|= fun (i, c) -> Flip (i, c));
      (1, pos >|= fun i -> Truncate i);
      (2, pair pos pos >|= fun (i, j) -> Swap_tokens (i, j));
    ]

(* Tokens: runs of letters and digits, or single other characters *)
let tokens s =
  let word c = match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false in
  let rec go i acc =
    if i >= String.length s then List.rev acc
    else
      let j = ref (i + 1) in
      if word s.[i] then while !j < String.length s && word s.[!j] do incr j done;
      go !j (String.sub s i (!j - i) :: acc)
  in
  Array.of_list (go 0 [])

let mutate s = function
  | _ when s = "" -> s
  | Flip (i, c) -> String.mapi (fun k x -> if k = i mod String.length s then c else x) s
  | Truncate i -> String.sub s 0 (i mod String.length s)
  | Swap_tokens (i, j) ->
      let t = tokens s in
      let i = i mod Array.length t and j = j mod Array.length t in
      let x = t.(i) in
      t.(i) <- t.(j);
      t.(j) <- x;
      String.concat "" (Array.to_list t)

let prop_parser_fuzz =
  QCheck2.Test.make
    ~name:"parser fuzz: mutated text parses or raises Invalid" ~count:2000
    ~print:(fun (ops, ms) ->
      String.escaped (List.fold_left mutate (Printer.to_string (rich_circuit ops)) ms))
    QCheck2.Gen.(
      pair (Gen.rot_program_gen ~max_ops:6 ~n:3 ()) (list_size (int_range 1 3) mutation_gen))
    (fun (ops, ms) ->
      let text = List.fold_left mutate (Printer.to_string (rich_circuit ops)) ms in
      match Parser.parse text with
      | _ -> true
      | exception Errors.Error (Errors.Invalid _) -> true)

let suite =
  [
    Alcotest.test_case "simple roundtrip" `Quick test_simple_roundtrip;
    Alcotest.test_case "all gate kinds" `Quick test_gate_variety_roundtrip;
    Alcotest.test_case "boxed circuits" `Quick test_subroutine_roundtrip;
    Alcotest.test_case "classical gates" `Quick test_cgate_roundtrip;
    Alcotest.test_case "file roundtrip" `Quick test_parse_file;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest prop_roundtrip_random;
    QCheck_alcotest.to_alcotest prop_roundtrip_rich;
    QCheck_alcotest.to_alcotest prop_parser_fuzz;
  ]
