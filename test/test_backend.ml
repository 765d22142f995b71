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
(* Buffer reuse across states                                          *)

module Fuse = Quipper_sim.Fuse
module Pool = Quipper_sim.Pool
module Rng = Quipper_math.Rng

(* Everything a run shows, floats as bit patterns: the amplitudes, three
   snapshot shots, then the outputs measured on the state itself. *)
let observe ~amplitudes ~snapshot ~measure (b : Circuit.b) =
  let bits = Array.map (fun c -> (Int64.bits_of_float (Cplx.re c), Int64.bits_of_float (Cplx.im c))) in
  let outs = b.Circuit.main.Circuit.outputs in
  let amps = bits (amplitudes ()) in
  let shots =
    match snapshot () with
    | Some snap -> List.init 3 (fun k -> Sv.sample_from snap ~rng:(Rng.create (11 + k)) outs)
    | None -> []
  in
  (amps, shots, List.map (fun (e : Wire.endpoint) -> measure e.Wire.wire) outs)

(* An engine runs a circuit and returns the state's capacity, its
   release and its observation. *)
let sv_engine b inputs =
  let st = Sv.run_circuit ~seed:5 b inputs in
  ( Sv.capacity st,
    (fun () -> Sv.release st),
    fun () ->
      observe b ~amplitudes:(fun () -> Sv.amplitudes st)
        ~snapshot:(fun () -> Sv.snapshot st) ~measure:(Sv.measure st) )

let fuse_engine b inputs =
  let st = Fuse.run_circuit ~seed:5 b inputs in
  ( Sv.capacity (Fuse.statevector st),
    (fun () -> Fuse.release st),
    fun () ->
      observe b ~amplitudes:(fun () -> Fuse.amplitudes st)
        ~snapshot:(fun () -> Fuse.snapshot st) ~measure:(Fuse.measure st) )

(* B observed on fresh buffers, then on the pair A released. *)
let reuse_agrees engine (a, ia) (b, ib) =
  ignore (Sv.create ()) (* empty this domain's spare slot *);
  let _, _, obs = engine b ib in
  let fresh = obs () in
  let cap_a, release_a, _ = engine a ia in
  release_a ();
  let cap_b, release_b, obs = engine b ib in
  let reused = obs () in
  release_b ();
  cap_b >= cap_a && reused = fresh

(* Widths relate as the first component says: A wider, narrower or as
   wide as B. Ancilla blocks leave stale amplitudes above the live
   prefix, which is what a wrong zero watermark would expose. *)
let reuse_pair_gen =
  QCheck2.Gen.(
    let* rel = oneofl [ `Wider; `Narrower; `Equal ] in
    let* nb = int_range 2 5 in
    let na = match rel with `Wider -> nb + 2 | `Narrower -> nb - 1 | `Equal -> nb in
    let prog n = pair (ancilla_heavy_gen ~n) (list_repeat n bool) in
    let* pa = prog na and* pb = prog nb in
    return ((na, pa), (nb, pb)))

let prop_reuse_bit_identical =
  QCheck2.Test.make ~name:"released buffers: the next run is bit-identical to a fresh one"
    ~count:150 reuse_pair_gen
    (fun ((na, (opsa, ia)), (nb, (opsb, ib))) ->
      let a = Gen.circuit_of_program ~n:na opsa and b = Gen.circuit_of_program ~n:nb opsb in
      reuse_agrees sv_engine (a, ia) (b, ib) && reuse_agrees fuse_engine (a, ia) (b, ib))

let test_release_contract () =
  let raises what f =
    match f () with
    | _ -> Alcotest.failf "%s on a released state did not raise" what
    | exception Errors.Error (Errors.Simulation _) -> ()
  in
  let q = Gate.Init { ty = Wire.Q; value = false; wire = 0 }
  and c = Gate.Init { ty = Wire.C; value = true; wire = 1 }
  and x = Gate.Gate { name = "X"; inv = false; targets = [ 0 ]; controls = [] } in
  let sv = Sv.create () in
  List.iter (Sv.apply_gate sv) [ q; c; x ];
  let snap = Option.get (Sv.snapshot sv) in
  Sv.release sv;
  Sv.release sv;
  check "released capacity" true (Sv.capacity sv = 0);
  raises "Statevector gate" (fun () -> Sv.apply_gate sv x);
  raises "Statevector Init" (fun () -> Sv.apply_gate sv q);
  raises "Statevector measure" (fun () -> Sv.measure sv 0);
  raises "Statevector read_bit" (fun () -> Sv.read_bit sv 1);
  raises "Statevector amplitudes" (fun () -> Sv.amplitudes sv);
  raises "Statevector snapshot" (fun () -> Sv.snapshot sv);
  raises "Statevector qubit_index" (fun () -> Sv.qubit_index sv 0);
  raises "Statevector apply_kernel" (fun () -> Sv.apply_kernel sv (fun ~re:_ ~im:_ ~size:_ -> ()));
  (* a snapshot is a copy: it outlives the release *)
  check "snapshot after release" true
    (Sv.sample_from snap ~rng:(Rng.create 1) [ Wire.qw 0; Wire.cw 1 ] = [ true; true ]);
  let fu = Fuse.create () in
  List.iter (Fuse.apply_gate fu) [ q; c; x ];
  Fuse.release fu;
  raises "Fuse gate" (fun () -> Fuse.apply_gate fu x);
  raises "Fuse measure" (fun () -> Fuse.measure fu 0);
  raises "Fuse read_bit" (fun () -> Fuse.read_bit fu 1);
  raises "Fuse amplitudes" (fun () -> Fuse.amplitudes fu);
  raises "Fuse snapshot" (fun () -> Fuse.snapshot fu)

(* Two prepares fanned out over two domains at different widths, live
   at once: each waits (up to 2 s) until both have started, so they run
   on different domains where the machine has two. Each releases its
   pair, waits until both have, and creates one more state: that state
   must start on the pair its own domain released. One slot shared by
   the domains would hand one task the other's pair, or none. *)
let test_spare_per_domain () =
  let started = Atomic.make 0 and released = Atomic.make 0 in
  let wait_for_both counter =
    Atomic.incr counter;
    let t0 = Unix.gettimeofday () in
    while Atomic.get counter < 2 && Unix.gettimeofday () -. t0 < 2. do
      Domain.cpu_relax ()
    done
  in
  let seen = Array.make 2 (0, 0, 0) in
  Pool.run ~domains:2 2 (fun i ->
      wait_for_both started;
      let st = Sv.create () in
      List.iter (Sv.apply_gate st)
        (List.init (if i = 0 then 9 else 6) (fun w ->
             Gate.Init { ty = Wire.Q; value = w mod 2 = 0; wire = w }));
      let cap = Sv.capacity st in
      Sv.release st;
      wait_for_both released;
      seen.(i) <- ((Domain.self () :> int), cap, Sv.capacity (Sv.create ())));
  Array.iteri
    (fun i (d, cap, got) ->
      if got <> cap then
        Alcotest.failf "task %d on domain %d released capacity %d and took %d" i d cap got)
    seen;
  let d0, _, _ = seen.(0) and d1, _, _ = seen.(1) in
  if Domain.recommended_domain_count () > 1 then
    check "the tasks ran on two domains" true (d0 <> d1)

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
  let expected = Backend.run_and_measure (module Backend.Classical) b inputs in
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
(* The one driver                                                      *)

(* Each backend's corpus: the testgen programs inside its gate set *)
let corpus_of name ~n =
  match name with
  | "classical" -> Gen.classical_program_gen ~n ()
  | "clifford" -> Gen.clifford_program_gen ~n ()
  | _ -> Gen.program_gen ~n ()

(* Three ways to run one program: as a function executed gate by gate,
   as its generated circuit, and streamed into [Backend.sink]. At equal
   seeds they give the same observation, bit for bit, and measuring the
   outputs gives the same outcomes. *)
let prop_driver_law (module B : Backend.S) =
  let n = 4 in
  let shape = Qdata.list_of n Qdata.qubit in
  QCheck2.Test.make ~count:40
    ~name:(B.name ^ ": driver law, run_fun = run_circuit = streamed sink")
    QCheck2.Gen.(triple (corpus_of B.name ~n) (list_repeat n bool) (int_range 1 1000))
    (fun (ops, inputs, seed) ->
      let f = Gen.program_fun ops in
      let b = Gen.circuit_of_program ~n ops in
      let st, r = B.run_fun ~seed ~in_:shape inputs f in
      let obs_fun = B.observe st in
      let obs_circ = B.observe (B.run_circuit ~seed b inputs) in
      let obs_sink, _ =
        Circ.run_streaming ~in_:shape f (Backend.sink (module B) ~seed ~inputs ())
      in
      let outcomes =
        Quipper_sim.Drive.readout ~measure:(B.measure st) ~read_bit:(B.read_bit st)
          (Qdata.qleaves shape r)
      in
      obs_fun = obs_circ && obs_fun = obs_sink
      && outcomes = Backend.run_and_measure (module B) ~seed b inputs)

(* A run function keeps no gate once it has applied it: between the
   first and the last of 2*10^5 gates on one qubit, the live heap grows
   by less than one word per gate. *)
let test_run_fun_retains_no_gates () =
  let gates = 200_000 in
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let first = ref 0 and last = ref 0 in
  let probe r = Circ.map (return ()) (fun () -> r := live ()) in
  let prog q =
    let* () = qnot_ q in
    let* () = probe first in
    let* () = for_ 2 gates (fun _ -> qnot_ q) in
    let* () = probe last in
    return q
  in
  let _ = Sv.run_fun ~in_:Qdata.qubit false prog in
  check
    (Fmt.str "live words grew by %d over %d gates" (!last - !first) gates)
    true
    (!last - !first < gates)

(* Classical wires have one semantics, so hostile text reaching the
   simulators fails the same way on each: a [Simulation] error that
   names the backend. The optimizer's constant folding shares the
   evaluator and leaves what it cannot evaluate alone. *)
let test_hostile_classical_input () =
  (* a bit the optimizer must not take for a constant controls a gate *)
  let use = "\nQInit0(3)\nQGate[\"not\"](3) with controls=[+2c]" in
  let cases =
    [
      ("unknown classical gate", "CInit1(0)\nCInit0(1)\nCGate[\"nand\"](2;0,1)" ^ use);
      ("not with two inputs", "CInit1(0)\nCInit0(1)\nCGate[\"not\"](2;0,1)" ^ use);
      ("read of an unset wire", "CInit1(0)\nCGate[\"xor\"](2;0,5)" ^ use);
      ("unset classical control", "QInit0(0)\nQGate[\"not\"](0) with controls=[+5c]");
    ]
  in
  List.iter
    (fun (what, body) ->
      let b = Parser.parse ("Inputs: none\n" ^ body ^ "\nOutputs: none\n") in
      List.iter
        (fun (module B : Backend.S) ->
          match B.run_circuit b [] with
          | exception Errors.Error (Errors.Simulation msg) ->
              check
                (Fmt.str "%s: %s names the backend (%s)" what B.name msg)
                true
                (Astring_contains.contains msg (B.name ^ ":"))
          | _ -> Alcotest.failf "%s: %s accepted the circuit" what B.name)
        Backend.all;
      let b' = Quipper_opt.Stream_opt.optimize_b b in
      check (what ^ ": the optimizer keeps every gate") true
        (Array.length b'.Circuit.main.Circuit.gates
        = Array.length b.Circuit.main.Circuit.gates))
    cases

(* ------------------------------------------------------------------ *)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_inplace_matches_reference;
    QCheck_alcotest.to_alcotest prop_kernels_match_reference;
    Alcotest.test_case "capacity grows geometrically" `Quick test_capacity_growth;
    Alcotest.test_case "capacity survives ancilla churn" `Quick
      test_capacity_retention_under_churn;
    QCheck_alcotest.to_alcotest prop_reuse_bit_identical;
    Alcotest.test_case "a released state refuses every use" `Quick test_release_contract;
    Alcotest.test_case "spare buffers stay on their domain" `Quick test_spare_per_domain;
    Alcotest.test_case "backend lookup by name" `Quick test_backend_find;
    Alcotest.test_case "observation equality" `Quick test_observation_equality;
    Alcotest.test_case "run_fun + measure on every backend" `Quick
      test_backend_run_fun_measure;
    Alcotest.test_case "all backends agree on a permutation circuit" `Quick
      test_backend_all_agree;
    Alcotest.test_case "fault campaign: clifford matches statevector" `Quick
      test_inject_clifford_vs_statevector;
    Alcotest.test_case "run_fun retains no applied gate" `Quick
      test_run_fun_retains_no_gates;
    Alcotest.test_case "hostile classical input fails alike on every backend" `Quick
      test_hostile_classical_input;
  ]
  @ List.map
      (fun b -> QCheck_alcotest.to_alcotest (prop_driver_law b))
      Backend.all
