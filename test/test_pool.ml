(* The process-wide worker pool ([Quipper_sim.Pool]) and the two fan-outs
   routed through it: [Kernel.par_range] and the shot service's batches.

   The pool must run every task exactly once whatever the relation of
   the task count to the worker count, re-raise a task's exception in
   the caller and stay usable, and survive nested fan-out (a batch task
   whose preparation crosses [Kernel.threshold] fans out again). Outcomes
   must not depend on the domain count, even one far past OCaml's domain
   limit. *)

module Gen = Quipper_testgen.Gen
module Kernel = Quipper_sim.Kernel
module Pool = Quipper_sim.Pool
module Rng = Quipper_math.Rng
module Serve = Quipper_serve

let check = Alcotest.(check bool)
let workers = max 1 (Domain.recommended_domain_count () - 1)

(* [run ~domains n] with a per-task counter: true when every task ran
   exactly once *)
let runs_each_once ~domains n =
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  Pool.run ~domains n (fun i -> Atomic.incr hits.(i));
  Array.for_all (fun c -> Atomic.get c = 1) hits

let test_exactly_once () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          check
            (Printf.sprintf "%d tasks at %d domains, %d workers" n domains workers)
            true
            (runs_each_once ~domains n))
        [ 0; 1; workers - 1; workers; workers + 1; (3 * workers) + 2; 64 ])
    [ 1; 2; 4; workers + 1; 200 ]

let test_failure () =
  let raised =
    match Pool.run ~domains:4 16 (fun i -> if i = 5 then failwith "task 5") with
    | () -> None
    | exception Failure m -> Some m
  in
  check "the task's exception reaches the caller" true (raised = Some "task 5");
  (* several failing tasks: one of their exceptions, never a lost one *)
  let raised =
    match
      Pool.run ~domains:4 16 (fun i ->
          if i mod 3 = 0 then invalid_arg (string_of_int i))
    with
    | () -> None
    | exception Invalid_argument m -> Some (int_of_string m)
  in
  check "one of several exceptions reaches the caller" true
    (match raised with Some i -> i mod 3 = 0 | None -> false);
  check "the pool still runs every task afterwards" true
    (runs_each_once ~domains:4 16 && runs_each_once ~domains:2 3)

let test_nested () =
  let outer = 4 and inner = 6 in
  let hits = Array.init (outer * inner * inner) (fun _ -> Atomic.make 0) in
  Pool.run ~domains:4 outer (fun i ->
      Pool.run ~domains:4 inner (fun j ->
          Pool.run ~domains:3 inner (fun k ->
              Atomic.incr hits.((((i * inner) + j) * inner) + k))));
  check "three levels of nested runs each ran every task once" true
    (Array.for_all (fun c -> Atomic.get c = 1) hits)

(* Serve [reqs] as one batch at [domains], restoring the globals. *)
let batch_at ?threshold ~domains ~backend reqs =
  let saved_d = !Kernel.num_domains and saved_t = !Kernel.threshold in
  Fun.protect
    ~finally:(fun () ->
      Kernel.num_domains := saved_d;
      Kernel.threshold := saved_t)
    (fun () ->
      Kernel.num_domains := domains;
      Option.iter (fun t -> Kernel.threshold := t) threshold;
      List.map
        (function Ok r -> r.Serve.outcomes | Error e -> failwith e)
        (Serve.submit_batch (Serve.create ~backend ()) reqs))

(* Batch tasks whose 6-qubit preparations cross a threshold lowered to
   16 amplitudes: every kernel inside a batch task fans out again. *)
let test_nested_batch () =
  let n = 6 in
  let reqs =
    List.init 16 (fun j ->
        {
          Serve.circuit =
            Gen.circuit_of_program ~n
              (Gen.sample ~seed:(j mod 8) (Gen.rot_program_gen ~min_ops:8 ~n ()));
          inputs = List.init n (fun q -> (j + q) mod 3 = 0);
          shots = 8;
          seed = Rng.derive 17 j;
        })
  in
  let at d = batch_at ~threshold:16 ~domains:d ~backend:`Fused reqs in
  let one = at 1 in
  check "2 domains: outcomes bit-identical to 1" true (at 2 = one);
  check "4 domains: outcomes bit-identical to 1" true (at 4 = one)

(* 200 domains asked for, far past OCaml's limit of 128 live domains:
   the pool caps its workers at the core count, so the batch serves. *)
let test_domain_limit () =
  let n = 3 in
  let circuit =
    Gen.circuit_of_program ~n [ Gen.H 0; Gen.CNot (0, 1); Gen.H 2; Gen.CNot (2, 1) ]
  in
  let reqs =
    List.init 200 (fun r ->
        {
          Serve.circuit;
          inputs = [ false; true; false ];
          shots = 4;
          seed = Rng.derive 3 r;
        })
  in
  let one = batch_at ~domains:1 ~backend:`Statevector reqs in
  check "200 domains: outcomes equal those at 1" true
    (batch_at ~domains:200 ~backend:`Statevector reqs = one)

let suite =
  [
    Alcotest.test_case "every task runs exactly once" `Quick test_exactly_once;
    Alcotest.test_case "a raising task re-raises; pool stays usable" `Quick
      test_failure;
    Alcotest.test_case "nested runs terminate" `Quick test_nested;
    Alcotest.test_case "nested fan-out in a batch, 1/2/4 domains" `Quick
      test_nested_batch;
    Alcotest.test_case "submit_batch at 200 domains = at 1" `Quick
      test_domain_limit;
  ]
