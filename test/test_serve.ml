(* The shot service ([Quipper_serve]) and the sampling surface it rides
   on ([Backend.S.snapshot]/[sample_from]).

   The load-bearing property is the sampling law: N shots drawn from one
   frozen pre-measurement state must be bit-identical, at equal seeds,
   to N independent end-to-end runs — on the statevector/fused and
   clifford backends, whatever the domain count. Everything else (the
   request cache, the shared box cache, the re-simulation fallback, the
   noiseless campaign fast path) must preserve exactly that equality. *)

open Quipper
open Circ
module Gen = Quipper_testgen.Gen
module Backend = Quipper_sim.Backend
module Sv = Quipper_sim.Statevector
module Fuse = Quipper_sim.Fuse
module Kernel = Quipper_sim.Kernel
module Noise = Quipper_sim.Noise
module Serve = Quipper_serve
module Stream_opt = Quipper_opt.Stream_opt

let check = Alcotest.(check bool)
let inputs_gen n = QCheck2.Gen.(list_repeat n bool)

(* ------------------------------------------------------------------ *)
(* The sampling law, end to end through the service                    *)

(* Submit the same request twice as a batch (so the second is served
   from the request cache) at [domains] workers and compare every shot
   against the naive per-shot rebuild+resimulate path. *)
let serve_matches_naive ~choice ~domains req =
  let saved = !Kernel.num_domains in
  Kernel.num_domains := domains;
  let svc = Serve.create ~backend:choice () in
  let naive = Serve.naive svc req in
  let replies = Serve.submit_batch svc [ req; req ] in
  Kernel.num_domains := saved;
  match replies with
  | [ Ok r1; Ok r2 ] ->
      r1.Serve.outcomes = naive && r2.Serve.outcomes = naive
      (* at one worker the requests are served in order, so the second
         must hit the cache; racing workers may legitimately both miss *)
      && (domains > 1 || r2.Serve.cache_hit)
  | _ -> false

let prop_sampling_law ~name ~choice ~gen ~n =
  QCheck2.Test.make ~name ~count:60
    QCheck2.Gen.(pair (gen ()) (inputs_gen n))
    (fun (ops, inputs) ->
      let b = Gen.circuit_of_program ~n ops in
      let req = { Serve.circuit = b; inputs; shots = 5; seed = 42 } in
      serve_matches_naive ~choice ~domains:1 req
      && serve_matches_naive ~choice ~domains:2 req)

let prop_law_statevector =
  prop_sampling_law
    ~name:"sampling law: statevector, batched = naive, 1 and 2 domains (60)"
    ~choice:`Statevector
    ~gen:(fun () -> Gen.program_gen ~n:4 ())
    ~n:4

let prop_law_fused =
  prop_sampling_law
    ~name:"sampling law: fused, batched = naive, 1 and 2 domains (60)"
    ~choice:`Fused
    ~gen:(fun () -> Gen.program_gen ~n:4 ())
    ~n:4

let prop_law_clifford =
  prop_sampling_law
    ~name:"sampling law: clifford, batched = naive, 1 and 2 domains (60)"
    ~choice:`Clifford
    ~gen:(fun () -> Gen.clifford_program_gen ~n:4 ())
    ~n:4

let prop_law_auto =
  prop_sampling_law
    ~name:"sampling law: auto backend pick, batched = naive (60)"
    ~choice:`Auto
    ~gen:(fun () -> Gen.program_gen ~n:4 ())
    ~n:4

(* ------------------------------------------------------------------ *)
(* Fallback: mid-circuit measurement forbids snapshots                 *)

(* H; CNOT; measure one qubit mid-circuit; keep going. The measurement
   consumes seeded randomness, so every backend must decline to
   snapshot and the service must re-simulate each shot — still
   bit-identical to the naive path by construction. *)
let measuring_circuit () =
  let shape = Qdata.list_of 2 Qdata.qubit in
  let b, _ =
    Circ.generate ~in_:shape (fun ql ->
        match ql with
        | [ a; b ] ->
            let* a = hadamard a in
            let* () = cnot ~control:a ~target:b in
            let* _ca = measure_qubit a in
            let* b = hadamard b in
            return [ b ]
        | _ -> assert false)
  in
  b

let test_resim_fallback () =
  let b = measuring_circuit () in
  List.iter
    (fun choice ->
      let svc = Serve.create ~backend:choice () in
      let req = { Serve.circuit = b; inputs = [ false; false ]; shots = 8; seed = 3 } in
      let r = Serve.submit svc req in
      check "all shots resimulated" true
        (r.Serve.sampled = 0 && r.Serve.resimulated = 8);
      check "fallback still bit-identical" true
        (r.Serve.outcomes = Serve.naive svc req))
    [ `Clifford; `Fused; `Statevector; `Auto ]

(* The law-checked default derivation for backends that cannot snapshot
   at all: [Without_snapshot] declines every state, and otherwise
   behaves exactly like its base. *)
module WS = Backend.Without_snapshot (Backend.Statevector)

let test_without_snapshot () =
  let ops = Gen.sample (Gen.program_gen ~n:3 ()) in
  let b = Gen.circuit_of_program ~n:3 ops in
  let inputs = [ true; false; false ] in
  let st = WS.run_circuit ~seed:9 b inputs in
  check "declines every state" true (WS.snapshot st = None);
  check "base behaviour unchanged" true
    (Backend.run_and_measure (module WS) ~seed:9 b inputs
    = Backend.run_and_measure (module Backend.Statevector) ~seed:9 b inputs)

(* ------------------------------------------------------------------ *)
(* The canonical structural hash                                       *)

let test_hash_structural () =
  let ops = [ Gen.H 0; Gen.CNot (0, 1); Gen.T 1 ] in
  let b1 = Gen.circuit_of_program ~n:2 ops in
  let b2 = Gen.circuit_of_program ~n:2 ops in
  check "structurally equal rebuilds hash equal" true
    (Circuit.hash b1 = Circuit.hash b2);
  let b3 = Gen.circuit_of_program ~n:2 [ Gen.H 0; Gen.CNot (0, 1); Gen.S 1 ] in
  check "different gates hash differently" true (Circuit.hash b1 <> Circuit.hash b3)

let flat_rot angle : Circuit.t =
  {
    Circuit.inputs = [ { Wire.wire = 0; ty = Wire.Q } ];
    gates =
      [|
        Gate.Rot { name = "Rz"; angle; inv = false; targets = [ 0 ]; controls = [] };
      |];
    outputs = [ { Wire.wire = 0; ty = Wire.Q } ];
  }

let test_hash_parameter_sensitive () =
  check "equal angles hash equal" true
    (Circuit.hash_t (flat_rot 0.25) = Circuit.hash_t (flat_rot 0.25));
  check "angles enter via IEEE bits" true
    (Circuit.hash_t (flat_rot (0.1 +. 0.2)) <> Circuit.hash_t (flat_rot 0.3))

(* ------------------------------------------------------------------ *)
(* Box-alias regression: the compiled-program cache keys on body hash  *)

let boxed_circuit ops : Circuit.b =
  let shape = Qdata.list_of 2 Qdata.qubit in
  let b, _ =
    Circ.generate ~in_:shape (fun ql ->
        box "body" ~in_:shape ~out:shape (Gen.program_fun ops) ql)
  in
  b

let test_box_alias () =
  (* same box name, different bodies, one shared compiled-program
     cache: before keying on the structural body hash, the second
     circuit would replay the first circuit's compilation *)
  let b1 = boxed_circuit [ Gen.H 0; Gen.CNot (0, 1) ] in
  let b2 = boxed_circuit [ Gen.X 0; Gen.T 1 ] in
  check "bodies hash differently" true (Circuit.hash b1 <> Circuit.hash b2);
  let boxes = Fuse.box_cache () in
  let amps ?boxes b =
    Fuse.amplitudes (Fuse.run_circuit ?boxes ~seed:3 b [ true; false ])
  in
  let fresh1 = amps b1 and fresh2 = amps b2 in
  check "shared cache: first circuit unchanged" true (amps ~boxes b1 = fresh1);
  check "shared cache: same-named box does not alias" true
    (amps ~boxes b2 = fresh2);
  (* one event stream that defines "body" as b1's, calls it, redefines
     it as b2's and calls it again: each call must expand the body in
     force *)
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
  let unboxed b = Sink.drive b (Sink.unbox (Sink.gates ())) in
  check "unbox: a redefined box expands its new body" true
    (both (Sink.unbox (Sink.gates ())) = unboxed b1 @ unboxed b2);
  (* the optimizer's skeleton memo, shared across both circuits, must
     not hand b1's rewritten body to b2 *)
  let memo = Stream_opt.memo () in
  let optimized ?memo b = Sink.drive b (Stream_opt.sink ?memo (Sink.circuit ())) in
  let fresh1 = optimized b1 and fresh2 = optimized b2 in
  check "stream_opt: shared memo, same-named box does not alias" true
    (optimized ~memo b1 = fresh1 && optimized ~memo b2 = fresh2
    && fresh1 <> fresh2)

(* ------------------------------------------------------------------ *)
(* The noiseless campaign fast path rides the same surface             *)

let test_noise_snapshot_path () =
  let b =
    Gen.circuit_of_program ~n:3 [ Gen.H 0; Gen.CNot (0, 1); Gen.Toffoli (0, true, 1, true, 2) ]
  in
  let inputs = [ false; true; false ] in
  let collect engine =
    let out = Array.make 20 None in
    let s =
      Noise.sample_trials_on
        (module Backend.Statevector)
        ~master_seed:5 ~engine ~trials:20 Noise.none b inputs
        ~f:(fun t x -> out.(t) <- Some x)
    in
    (out, s)
  in
  let auto, sa = collect `Auto in
  let slow, ss = collect `Slow in
  check "noiseless auto = slow, bit for bit" true (auto = slow);
  check "auto served every trial from one snapshot" true
    (sa.Noise.snapshot_sampled = 20 && sa.Noise.completed = 20);
  check "slow path untouched" true
    (ss.Noise.snapshot_sampled = 0 && ss.Noise.slow_sampled = 20)

(* Single-prepare under contention: many workers race for one key; the
   first marks it in-flight and prepares, the rest block on the condvar
   and take the cached entry. Exactly one preparation run must happen,
   and the blocked workers must count as hits — the outcomes staying
   bit-identical to the naive path throughout. *)
let test_single_prepare () =
  let saved = !Kernel.num_domains in
  Kernel.num_domains := 8;
  let b =
    Gen.circuit_of_program ~n:3 [ Gen.H 0; Gen.CNot (0, 1); Gen.CNot (1, 2) ]
  in
  let req =
    { Serve.circuit = b; inputs = [ false; false; false ]; shots = 4; seed = 9 }
  in
  let svc = Serve.create ~backend:`Statevector () in
  let naive = Serve.naive svc req in
  let replies = Serve.submit_batch svc (List.init 16 (fun _ -> req)) in
  Kernel.num_domains := saved;
  let st = Serve.stats svc in
  check "all 16 replies match naive" true
    (List.for_all
       (function Ok r -> r.Serve.outcomes = naive | Error _ -> false)
       replies);
  check "prepared exactly once" true (st.Serve.prepares = 1);
  check "one miss, the rest hits" true
    (st.Serve.misses = 1 && st.Serve.hits = 15 && st.Serve.entries = 1);
  (* a preparation that fails wakes its waiters, and each retries and
     fails in turn: no hang, no cached failure *)
  let q = { Wire.wire = 0; ty = Wire.Q } in
  let undefined =
    Circuit.of_main
      {
        Circuit.inputs = [ q ];
        gates =
          [| Gate.Subroutine
               { name = "undefined"; inv = false; inputs = [ 0 ]; outputs = [ 0 ];
                 controls = [] } |];
        outputs = [ q ];
      }
  in
  let bad = { req with Serve.circuit = undefined; inputs = [ false ] } in
  let svc = Serve.create () in
  Kernel.num_domains := 4;
  let replies = Serve.submit_batch svc (List.init 8 (fun _ -> bad)) in
  Kernel.num_domains := saved;
  let st = Serve.stats svc in
  check "8 requests naming an undefined box: 8 errors" true
    (List.length replies = 8
    && List.for_all (function Error _ -> true | Ok _ -> false) replies);
  check "no preparation completed, nothing cached" true
    (st.Serve.prepares = 0 && st.Serve.entries = 0 && st.Serve.misses = 8)

(* The daemon's "SHOTS SEED" lines are checked before [submit]: a bad
   count gets [Errors.Error] text, never a stdlib exception and never an
   allocation sized by the request. *)
let test_daemon_shot_lines () =
  let reply line =
    match Quipper_cli.shot_request line with
    | shots, seed -> Fmt.str "ok %d %d" shots seed
    | exception Errors.Error r -> Errors.to_string r
  in
  let check line expect = Alcotest.(check string) line expect (reply line) in
  check "64 7" "ok 64 7";
  check " 0 -3 " "ok 0 -3";
  check "16777216 1" "ok 16777216 1";
  let range n =
    Fmt.str
      "SHOTS must be between 0 and 16777216 (each shot keeps an outcome row of \
       at least 24 bytes), got %d"
      n
  in
  check "-5 1" (range (-5));
  check "16777217 1" (range 16777217);
  (* counts that once passed and then ran out of memory in [submit] *)
  check "1000000000 1" (range 1000000000);
  check "18014398509481983 1" (range 18014398509481983);
  check "4611686018427387903 1" (range 4611686018427387903);
  check "foo" "expected \"SHOTS SEED\", got \"foo\"";
  check "1 2 3" "expected \"SHOTS SEED\", got \"1 2 3\"";
  check "1 x" "expected \"SHOTS SEED\", got \"1 x\""

let suite =
  [
    Alcotest.test_case "daemon rejects bad SHOTS before submit" `Quick test_daemon_shot_lines;
    QCheck_alcotest.to_alcotest prop_law_statevector;
    QCheck_alcotest.to_alcotest prop_law_fused;
    QCheck_alcotest.to_alcotest prop_law_clifford;
    QCheck_alcotest.to_alcotest prop_law_auto;
    Alcotest.test_case "fallback: mid-circuit measurement resimulates" `Quick
      test_resim_fallback;
    Alcotest.test_case "Without_snapshot: declines, base unchanged" `Quick
      test_without_snapshot;
    Alcotest.test_case "hash: structural equality and sensitivity" `Quick
      test_hash_structural;
    Alcotest.test_case "hash: rotation angles via IEEE bits" `Quick
      test_hash_parameter_sensitive;
    Alcotest.test_case "box cache: same name, different bodies" `Quick
      test_box_alias;
    Alcotest.test_case "noise: noiseless sampling rides the snapshot" `Quick
      test_noise_snapshot_path;
    Alcotest.test_case "cache: one prepare under 8-domain contention" `Quick
      test_single_prepare;
  ]
