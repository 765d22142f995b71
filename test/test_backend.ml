(* Tests for the unified simulator interface (Quipper_sim.Backend), the
   fast statevector engine's bit-for-bit agreement with the preserved
   seed engine (Quipper_sim.Reference), the capacity-managed amplitude
   buffers, and cross-backend fault-injection campaigns. *)

open Quipper
module Gen = Quipper_testgen.Gen
open Circ
module Backend = Quipper_sim.Backend
module Sv = Quipper_sim.Statevector
module Ref = Quipper_sim.Reference
module Cs = Quipper_sim.Classical
module Inject = Quipper_sim.Inject
module Cplx = Quipper_math.Cplx

let check = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bit-for-bit agreement with the seed engine                          *)

(* Ancilla-heavy programs: the in-place Init/Term surgery is the part of
   the fast engine with no counterpart in the seed, so the generator
   leans hard on [Ancilla_block] (nested blocks allocate several deep). *)
let ancilla_heavy_gen ~n =
  QCheck2.Gen.(
    list_size (int_range 1 8)
      (frequency
         [
           (2, Gen.op_gen ~n ~depth:2);
           ( 3,
             pair (int_range 0 (n - 1))
               (list_size (int_range 1 3) (Gen.op_gen ~n ~depth:1))
             >|= fun (c, ops) -> Gen.Ancilla_block (c, ops) );
         ]))

(* Polymorphic [=] on the amplitude arrays is the point: the fast
   kernels must reproduce the seed's floats exactly (signed zeros
   compare equal under IEEE [=], which is the equivalence we mean). *)
let prop_inplace_matches_reference =
  let n = 4 in
  QCheck2.Test.make
    ~name:"statevector: in-place Init/Term bit-for-bit equals seed engine"
    ~count:200
    QCheck2.Gen.(pair (ancilla_heavy_gen ~n) (list_repeat n bool))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n ops in
      let st = Sv.run_circuit ~seed:3 b inputs in
      let rst = Ref.run_circuit ~seed:3 b inputs in
      Sv.num_qubits st = Ref.num_qubits rst
      && Sv.amplitudes st = Ref.amplitudes rst
      && List.for_all
           (fun (e : Wire.endpoint) ->
             match e.Wire.ty with
             | Wire.Q ->
                 Sv.qubit_index st e.Wire.wire = Ref.qubit_index rst e.Wire.wire
             | Wire.C -> Sv.read_bit st e.Wire.wire = Ref.read_bit rst e.Wire.wire)
           b.Circuit.main.Circuit.outputs)

(* Every kernel kind against the seed engine, one controlled gate at a
   time: 8-10 qubits in a generic superposition, 0-6 quantum controls of
   mixed polarity, targets and controls anywhere — bit 0 (runs of length
   1), the top bit and in between (long runs) — at 1, 2 and 3 domains
   with the fan-out threshold at 16 amplitudes, so that chunks split the
   compressed control subspace at arbitrary points. *)
type kcase = {
  n : int;
  kind : int;
  targets : int list;
  ctrls : (int * bool) list;
  angle : float;
  inv : bool;
}

let kind_names =
  [| "X"; "Y"; "H"; "Z"; "S"; "T"; "Rz"; "exp(-i%Z)"; "R"; "V"; "Phase";
     "swap"; "W" |]

let kcase_gen =
  let open QCheck2.Gen in
  let* n = int_range 8 10 in
  let* kind = int_range 0 (Array.length kind_names - 1) in
  let arity = if kind = 10 then 0 else if kind >= 11 then 2 else 1 in
  let* first = oneof [ return 0; return (n - 1); int_range 0 (n - 1) ] in
  let* rest = shuffle_l (List.filter (( <> ) first) (List.init n Fun.id)) in
  (* the edge bit goes first: a target, or the only control *)
  let wires = first :: rest in
  let* nc = int_range 0 (min 6 (n - max arity 1)) in
  let* pols = list_repeat nc bool in
  let* angle = float_range (-3.0) 3.0 in
  let* inv = bool in
  let targets = List.filteri (fun i _ -> i < arity) wires in
  let cwires = List.filteri (fun i _ -> i >= arity && i < arity + nc) wires in
  return { n; kind; targets; ctrls = List.combine cwires pols; angle; inv }

let print_kcase c =
  Printf.sprintf "%s n=%d targets=[%s] controls=[%s] angle=%g inv=%b"
    kind_names.(c.kind) c.n
    (String.concat ";" (List.map string_of_int c.targets))
    (String.concat ";"
       (List.map (fun (w, p) -> (if p then "+" else "-") ^ string_of_int w) c.ctrls))
    c.angle c.inv

let kcase_gate c =
  let controls =
    List.map
      (fun (w, p) -> if p then Gate.pos_control w else Gate.neg_control w)
      c.ctrls
  in
  let gate name = Gate.Gate { name; inv = c.inv; targets = c.targets; controls } in
  let rot name =
    Gate.Rot { name; angle = c.angle; inv = c.inv; targets = c.targets; controls }
  in
  match kind_names.(c.kind) with
  | "X" -> gate "not"
  | ("Rz" | "exp(-i%Z)" | "R") as r -> rot r
  | "Phase" -> Gate.Phase { angle = c.angle; controls }
  | name -> gate name

(* A generic state on wires 0..n-1 (wire w at bit w): H everywhere, then
   a layer of distinct phases and entanglers so that no two amplitudes
   agree and no component is zero. *)
let kprep n =
  List.init n (fun w -> Gate.Init { ty = Wire.Q; value = false; wire = w })
  @ List.init n (fun w ->
        Gate.Gate { name = "H"; inv = false; targets = [ w ]; controls = [] })
  @ List.init n (fun w ->
        Gate.Rot
          { name = "Rz"; angle = 0.1 +. (0.37 *. float_of_int w); inv = false;
            targets = [ w ]; controls = [] })
  @ List.init (n - 1) (fun w ->
        Gate.Gate
          { name = "V"; inv = false; targets = [ w + 1 ];
            controls = [ Gate.pos_control w ] })

let prop_kernels_match_reference =
  QCheck2.Test.make
    ~name:"kernels: every kind under 0-6 controls, 1-3 domains, = seed engine"
    ~count:300 ~print:print_kcase kcase_gen
    (fun c ->
      let module K = Quipper_sim.Kernel in
      let gates = kprep c.n @ [ kcase_gate c ] in
      let rst = Ref.create () in
      List.iter (Ref.apply_gate rst) gates;
      let expected = Ref.amplitudes rst in
      let saved_d = !K.num_domains and saved_t = !K.threshold in
      Fun.protect
        ~finally:(fun () ->
          K.num_domains := saved_d;
          K.threshold := saved_t)
        (fun () ->
          K.threshold := 16;
          List.for_all
            (fun d ->
              K.num_domains := d;
              let st = Sv.create () in
              List.iter (Sv.apply_gate st) gates;
              Sv.amplitudes st = expected)
            [ 1; 2; 3 ]))

(* ------------------------------------------------------------------ *)
(* Capacity management                                                 *)

let test_capacity_growth () =
  (* grow to 6 live qubits: capacity must reach 2^6 = 64 *)
  let st, _ =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let rec alloc k acc =
          if k = 0 then return acc
          else
            let* a = qinit_bit false in
            alloc (k - 1) (a :: acc)
        in
        let rec free = function
          | [] -> return ()
          | a :: rest ->
              let* () = qterm_bit false a in
              free rest
        in
        let* ancs = alloc 5 [] in
        let* () = free ancs in
        return q)
  in
  check "one live qubit at the end" true (Sv.num_qubits st = 1);
  check "capacity reached the high-water mark" true (Sv.capacity st >= 64);
  check "capacity did not shrink on Term" true (Sv.capacity st >= 64)

let test_capacity_retention_under_churn () =
  (* ancilla churn within the high-water mark must not change capacity:
     that is the whole point of the in-place engine *)
  let st, _ =
    Sv.run_fun ~seed:1 ~in_:Qdata.qubit false (fun q ->
        let* () =
          with_ancilla_init [ false; false; false; false ] (fun _ -> return ())
        in
        return q)
  in
  let cap = Sv.capacity st in
  check "high-water capacity" true (cap >= 32);
  (* churn directly on the live state: fresh wire ids, Init/Term pairs *)
  for w = 1_000 to 1_050 do
    Sv.apply_gate st (Gate.Init { ty = Wire.Q; value = false; wire = w });
    Sv.apply_gate st
      (Gate.Gate { name = "X"; inv = false; targets = [ w ]; controls = [] });
    Sv.apply_gate st (Gate.Term { ty = Wire.Q; value = true; wire = w })
  done;
  check "churn within capacity allocates nothing" true (Sv.capacity st = cap)

(* ------------------------------------------------------------------ *)
(* The Backend contract                                                *)

let test_backend_find () =
  List.iter
    (fun name ->
      let (module B : Backend.S) = Backend.find name in
      check ("find " ^ name) true (B.name = name))
    [ "classical"; "clifford"; "statevector" ];
  match Backend.find "analog" with
  | exception Errors.Error (Errors.Simulation _) -> ()
  | _ -> Alcotest.fail "expected find to reject an unknown backend"

let test_observation_equality () =
  let h = 1.0 /. sqrt 2.0 in
  let plus = [| Cplx.make h 0.0; Cplx.make h 0.0 |] in
  let iplus = [| Cplx.make 0.0 h; Cplx.make 0.0 h |] in
  let minus = [| Cplx.make h 0.0; Cplx.make (-.h) 0.0 |] in
  check "global phase i is equal" true (Backend.equal_up_to_phase plus iplus);
  check "relative phase is not" false (Backend.equal_up_to_phase plus minus);
  check "amplitude observations use phase equivalence" true
    (Backend.equal_observation (Obs_amplitudes plus) (Obs_amplitudes iplus));
  check "cross-kind observations never compare equal" false
    (Backend.equal_observation (Obs_bits []) (Obs_tableau ""));
  check "bit observations are exact" true
    (Backend.equal_observation
       (Obs_bits [ (0, true) ])
       (Obs_bits [ (0, true) ]))

let test_backend_run_fun_measure () =
  (* every backend prepares |1>, measures 1, and reads the record back *)
  List.iter
    (fun (module B : Backend.S) ->
      let st, q = B.run_fun ~seed:1 ~in_:Qdata.qubit true (fun q -> return q) in
      check (B.name ^ ": prepared 1 measures 1") true
        (B.measure st (Wire.qubit_wire q));
      check (B.name ^ ": the measured wire reads back") true
        (B.read_bit st (Wire.qubit_wire q)))
    Backend.all

let test_backend_all_agree () =
  (* a fixed permutation circuit sits in every backend's gate set; all
     three must land on the classical simulator's answer *)
  let b, _ =
    Circ.generate ~in_:(Qdata.list_of 3 Qdata.qubit) (fun ql ->
        match ql with
        | [ a; bq; c ] ->
            let* () = qnot_ a in
            let* () = cnot ~control:a ~target:bq in
            let* () = swap bq c in
            return ql
        | _ -> assert false)
  in
  let inputs = [ false; true; false ] in
  let expected = Cs.run_circuit b inputs in
  List.iter
    (fun (module B : Backend.S) ->
      check (B.name ^ " agrees with the boolean run") true
        (Backend.run_and_measure (module B) ~seed:9 b inputs = expected))
    Backend.all

(* ------------------------------------------------------------------ *)
(* Cross-backend fault campaigns                                       *)

let test_inject_clifford_vs_statevector () =
  (* a Clifford circuit with an assertively-terminated ancilla: the
     polynomial-time campaign must classify every fault exactly as the
     amplitude-level one does *)
  let b, _ =
    Circ.generate ~in_:(Qdata.pair Qdata.qubit Qdata.qubit) (fun (a, bq) ->
        let* a = hadamard a in
        let* () = cnot ~control:a ~target:bq in
        let* () =
          with_ancilla (fun anc ->
              let* () = cnot ~control:a ~target:anc in
              let* () = cnot ~control:anc ~target:bq in
              cnot ~control:a ~target:anc)
        in
        return (a, bq))
  in
  let inputs = [ false; false ] in
  let rs = Inject.report_on (module Backend.Statevector) ~seed:2 b inputs in
  let rc = Inject.report_on (module Backend.Clifford) ~seed:2 b inputs in
  check "campaign is non-trivial" true (rs.Inject.faults > 0);
  check "same fault count" true (rs.Inject.faults = rc.Inject.faults);
  check "same detected count" true (rs.Inject.detected = rc.Inject.detected);
  check "same corrupted count" true (rs.Inject.corrupted = rc.Inject.corrupted);
  check "same masked count" true (rs.Inject.masked = rc.Inject.masked);
  check "identical per-finding outcomes" true
    (List.for_all2
       (fun (f1 : Inject.finding) (f2 : Inject.finding) ->
         f1.Inject.site = f2.Inject.site
         && f1.Inject.fault = f2.Inject.fault
         && f1.Inject.outcome = f2.Inject.outcome)
       rs.Inject.findings rc.Inject.findings)

(* ------------------------------------------------------------------ *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_inplace_matches_reference;
    QCheck_alcotest.to_alcotest prop_kernels_match_reference;
    Alcotest.test_case "capacity grows geometrically" `Quick test_capacity_growth;
    Alcotest.test_case "capacity survives ancilla churn" `Quick
      test_capacity_retention_under_churn;
    Alcotest.test_case "backend lookup by name" `Quick test_backend_find;
    Alcotest.test_case "observation equality" `Quick test_observation_equality;
    Alcotest.test_case "run_fun + measure on every backend" `Quick
      test_backend_run_fun_measure;
    Alcotest.test_case "all backends agree on a permutation circuit" `Quick
      test_backend_all_agree;
    Alcotest.test_case "fault campaign: clifford matches statevector" `Quick
      test_inject_clifford_vs_statevector;
  ]
