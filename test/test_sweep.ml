(* Parameter sweeps: the skeleton hash ([Circuit.hash_skeleton]), the
   fuser's re-specializable templates ([Fuse.compile_template] /
   [run_template]), the streaming optimizer's skeleton memo and the
   serve layer's [submit_sweep].

   The load-bearing property everywhere is bit-identity to the naive
   path: a template served at angle vector v must equal running the
   angle-substituted circuit from scratch, and every sweep point must
   equal submitting the equivalent independent request — whatever the
   backend, the cache warmth or the domain count. *)

open Quipper
module Gen = Quipper_testgen.Gen
module Fuse = Quipper_sim.Fuse
module Kernel = Quipper_sim.Kernel
module Stream_opt = Quipper_opt.Stream_opt
module Serve = Quipper_serve

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* A random rotation-bearing program plus a pool of angles to draw
   substitution vectors from (indexed deterministically, so the
   generator stays bind-free and shrinkable). *)
let rot_case_gen =
  QCheck2.Gen.(
    pair
      (Gen.rot_program_gen ~max_ops:10 ~n:3 ())
      (array_repeat 24 (float_range (-2.0) 2.0)))

let vector_of pool k j = Array.init k (fun i -> pool.(((j * 7) + i) mod 24))

(* ------------------------------------------------------------------ *)
(* hash_skeleton: angle-blind, structure-sensitive                     *)

let prop_skeleton_invariant =
  QCheck2.Test.make
    ~name:"hash_skeleton: invariant under angle substitution, hash is not"
    ~count:80 rot_case_gen (fun (ops, pool) ->
      let b = Gen.circuit_of_program ~n:3 ops in
      let k = Circuit.num_angles b in
      let v = vector_of pool k 1 in
      let b' = Circuit.subst_angles b v in
      Circuit.hash_skeleton b' = Circuit.hash_skeleton b
      && Array.length (Circuit.angles b) = k
      && Circuit.angles b' = v
      && (k = 0 || Circuit.angles b = v || Circuit.hash b' <> Circuit.hash b)
      && Circuit.hash (Circuit.subst_angles b (Circuit.angles b)) = Circuit.hash b)

let flat_rot ?(controls = []) name angle : Circuit.t =
  let shape = [ { Wire.wire = 0; ty = Wire.Q }; { Wire.wire = 1; ty = Wire.Q } ] in
  {
    Circuit.inputs = shape;
    gates = [| Gate.Rot { name; angle; inv = false; targets = [ 0 ]; controls } |];
    outputs = shape;
  }

let test_skeleton_structure_sensitive () =
  let skel = Circuit.hash_skeleton_t in
  check "same structure, different angle: equal skeletons" true
    (skel (flat_rot "Rz" 0.25) = skel (flat_rot "Rz" 0.9));
  check "full hash still sees the angle" true
    (Circuit.hash_t (flat_rot "Rz" 0.25) <> Circuit.hash_t (flat_rot "Rz" 0.9));
  check "different rotation name: different skeletons" true
    (skel (flat_rot "Rz" 0.25) <> skel (flat_rot "Rx" 0.25));
  check "added control: different skeletons" true
    (skel (flat_rot "Rz" 0.25)
    <> skel (flat_rot ~controls:[ Gate.pos_control 1 ] "Rz" 0.25));
  check "control polarity: different skeletons" true
    (skel (flat_rot ~controls:[ Gate.pos_control 1 ] "Rz" 0.25)
    <> skel (flat_rot ~controls:[ Gate.neg_control 1 ] "Rz" 0.25))

let boxed_circuit ops : Circuit.b =
  let shape = Qdata.list_of 2 Qdata.qubit in
  let b, _ =
    Circ.generate ~in_:shape (fun ql ->
        Circ.box "body" ~in_:shape ~out:shape (Gen.program_fun ops) ql)
  in
  b

let test_skeleton_resolves_boxes () =
  (* the angle lives inside a boxed body: the skeleton must look through
     the subroutine call and still ignore it — but see a changed axis *)
  let rz a = boxed_circuit [ Gen.H 0; Gen.Rz (0, a); Gen.CNot (0, 1) ] in
  let rx a = boxed_circuit [ Gen.H 0; Gen.Rx (0, a); Gen.CNot (0, 1) ] in
  check "boxed angle ignored" true
    (Circuit.hash_skeleton (rz 0.3) = Circuit.hash_skeleton (rz 1.1));
  check "boxed angle still hashes" true
    (Circuit.hash (rz 0.3) <> Circuit.hash (rz 1.1));
  check "boxed axis seen" true
    (Circuit.hash_skeleton (rz 0.3) <> Circuit.hash_skeleton (rx 0.3))

let test_skeleton_of_angle_free_circuit () =
  let b = Gen.circuit_of_program ~n:2 [ Gen.H 0; Gen.CNot (0, 1); Gen.X 1 ] in
  checki "no angle sites" 0 (Circuit.num_angles b);
  check "skeleton = hash when no angles" true
    (Circuit.hash_skeleton b = Circuit.hash b)

let test_subst_arity () =
  let b = Gen.circuit_of_program ~n:2 [ Gen.Rz (0, 0.5) ] in
  check "subst_angles rejects wrong arity" true
    (match Circuit.subst_angles b [||] with _ -> false | exception _ -> true)

(* ------------------------------------------------------------------ *)
(* Fuse templates: compile once, re-specialize per angle vector        *)

let amps_equal sa sb = Fuse.amplitudes sa = Fuse.amplitudes sb

let prop_template_differential =
  QCheck2.Test.make
    ~name:"fuse template: run_template v = run_circuit (subst_angles b v)"
    ~count:40 rot_case_gen (fun (ops, pool) ->
      let b = Gen.circuit_of_program ~n:3 ops in
      let inputs = [ false; true; false ] in
      let tpl = Fuse.compile_template b inputs in
      let k = Circuit.num_angles b in
      List.for_all
        (fun j ->
          let v = if j = 0 then Circuit.angles b else vector_of pool k j in
          amps_equal
            (Fuse.run_template ~seed:5 tpl v)
            (Fuse.run_circuit ~seed:5 (Circuit.subst_angles b v) inputs))
        [ 0; 1; 2 ])

let test_template_boxed_replay () =
  (* one body, two call sites: the template's replay plumbing must keep
     the sites straight across repeated subroutine calls *)
  let shape = Qdata.list_of 2 Qdata.qubit in
  let body = Gen.program_fun [ Gen.H 0; Gen.Rz (0, 0.4); Gen.Rx (1, -0.2) ] in
  let b, _ =
    Circ.generate ~in_:shape (fun ql ->
        let open Circ in
        let* ql = box "body" ~in_:shape ~out:shape body ql in
        box "body" ~in_:shape ~out:shape body ql)
  in
  let inputs = [ true; false ] in
  let tpl = Fuse.compile_template b inputs in
  let k = Circuit.num_angles b in
  check "boxed body contributes angle sites" true (k > 0);
  List.iter
    (fun v ->
      check "boxed template matches subst+rerun" true
        (amps_equal
           (Fuse.run_template ~seed:11 tpl v)
           (Fuse.run_circuit ~seed:11 (Circuit.subst_angles b v) inputs)))
    [ Circuit.angles b; Array.make k 0.77; Array.init k (fun i -> 0.1 *. float i) ]

(* ------------------------------------------------------------------ *)
(* Stream_opt: the skeleton memo replays box-body rewrites             *)

let test_memo_replays_insensitive_body () =
  let b1 = boxed_circuit [ Gen.H 0; Gen.Rz (0, 0.3); Gen.CNot (0, 1) ] in
  let k = Circuit.num_angles b1 in
  let b2 = Circuit.subst_angles b1 (Array.make k 0.9) in
  let m = Stream_opt.memo () in
  let st = Stream_opt.stats_create () in
  let o1 = Stream_opt.optimize_b ~stats:st ~memo:m b1 in
  let o2 = Stream_opt.optimize_b ~stats:st ~memo:m b2 in
  check "first circuit unchanged by the memo" true
    (Circuit.hash o1 = Circuit.hash (Stream_opt.optimize_b b1));
  check "replayed body equals a fresh optimization" true
    (Circuit.hash o2 = Circuit.hash (Stream_opt.optimize_b b2));
  check "second body was replayed, not re-optimized" true
    (st.Stream_opt.box_replayed >= 1)

let test_memo_angle_sensitive_fallback () =
  (* two same-axis rotations fuse — an angle-arithmetic rewrite, so the
     memo must refuse to replay it and re-optimize at the new angles *)
  let b1 = boxed_circuit [ Gen.Rz (0, 0.3); Gen.Rz (0, 0.4); Gen.CNot (0, 1) ] in
  let k = Circuit.num_angles b1 in
  let b2 = Circuit.subst_angles b1 (Array.init k (fun i -> 0.2 +. float i)) in
  let m = Stream_opt.memo () in
  let st = Stream_opt.stats_create () in
  let _ = Stream_opt.optimize_b ~stats:st ~memo:m b1 in
  let o2 = Stream_opt.optimize_b ~stats:st ~memo:m b2 in
  check "sensitive body re-optimized correctly" true
    (Circuit.hash o2 = Circuit.hash (Stream_opt.optimize_b b2));
  (* the raw body is re-optimized per circuit (downstream window stages
     may replay the post-fusion body — that one IS angle-insensitive) *)
  check "sensitive body hit the optimizer both times" true
    (st.Stream_opt.fused >= 2)

let prop_memo_differential =
  QCheck2.Test.make
    ~name:"stream_opt: shared skeleton memo never changes the output"
    ~count:40 rot_case_gen (fun (ops, pool) ->
      let b1 = boxed_circuit ops in
      let k = Circuit.num_angles b1 in
      let b2 = Circuit.subst_angles b1 (vector_of pool k 2) in
      let m = Stream_opt.memo () in
      Circuit.hash (Stream_opt.optimize_b ~memo:m b1)
      = Circuit.hash (Stream_opt.optimize_b b1)
      && Circuit.hash (Stream_opt.optimize_b ~memo:m b2)
         = Circuit.hash (Stream_opt.optimize_b b2))

(* ------------------------------------------------------------------ *)
(* submit_sweep: bit-identical to the per-point requests               *)

let outcomes_of replies =
  List.map
    (function Ok r -> Ok r.Serve.outcomes | Error e -> Error e)
    replies

(* Serve the sweep and, on a fresh service (so neither path warms the
   other), the equivalent independent requests; compare every shot. *)
let sweep_matches_per_point ~choice ~domains ?optimize sw =
  let saved = !Kernel.num_domains in
  Kernel.num_domains := domains;
  let svc = Serve.create ~backend:choice ?optimize () in
  let ref_svc = Serve.create ~backend:choice ?optimize () in
  let swept = outcomes_of (Serve.submit_sweep svc sw) in
  let per_point = outcomes_of (Serve.submit_batch ref_svc (Serve.sweep_requests sw)) in
  Kernel.num_domains := saved;
  swept = per_point

let sweep_of ?(shots = 5) ?(seed = 42) b pool =
  let k = Circuit.num_angles b in
  {
    Serve.sw_circuit = b;
    sw_inputs = [ false; true; false ];
    sw_points = List.map (fun j -> vector_of pool k j) [ 0; 1; 2; 3 ];
    sw_shots = shots;
    sw_seed = seed;
  }

let prop_sweep_matches_per_point =
  QCheck2.Test.make
    ~name:"submit_sweep = submit_batch (sweep_requests) on fused/sv/auto"
    ~count:20 rot_case_gen (fun (ops, pool) ->
      let b = Gen.circuit_of_program ~n:3 ops in
      let sw = sweep_of b pool in
      List.for_all
        (fun choice -> sweep_matches_per_point ~choice ~domains:2 sw)
        [ `Fused; `Statevector; `Auto ])

let prop_sweep_clifford =
  QCheck2.Test.make
    ~name:"submit_sweep on clifford skeletons (shared tableau entry)"
    ~count:20
    QCheck2.Gen.(
      pair (Gen.clifford_program_gen ~max_ops:15 ~n:3 ())
        (array_repeat 24 (float_range (-2.0) 2.0)))
    (fun (ops, pool) ->
      (* interleave global phases: angle sites the tableau ignores *)
      let ops = Gen.GPhase 0.4 :: (ops @ [ Gen.GPhase (-0.7) ]) in
      let b = Gen.circuit_of_program ~n:3 ops in
      let sw = sweep_of b pool in
      sweep_matches_per_point ~choice:`Clifford ~domains:2 sw
      && sweep_matches_per_point ~choice:`Auto ~domains:1 sw)

let test_sweep_optimized_service () =
  let b =
    Gen.circuit_of_program ~n:3
      [ Gen.H 0; Gen.Rz (1, 0.6); Gen.CNot (0, 1); Gen.Rx (2, -0.3) ]
  in
  let pool = Array.init 24 (fun i -> 0.17 *. float (i - 12)) in
  check "optimizing service still matches its per-point path" true
    (sweep_matches_per_point ~choice:`Fused ~domains:2 ~optimize:true
       (sweep_of b pool))

let test_sweep_warm_template () =
  let b =
    Gen.circuit_of_program ~n:3
      [ Gen.H 0; Gen.Rz (0, 0.5); Gen.CNot (0, 1); Gen.Rz (2, 1.2) ]
  in
  let pool = Array.init 24 (fun i -> 0.21 *. float (i - 7)) in
  let sw = sweep_of b pool in
  let svc = Serve.create ~backend:`Fused () in
  let cold = outcomes_of (Serve.submit_sweep svc sw) in
  let warm = outcomes_of (Serve.submit_sweep svc sw) in
  check "warm sweep bit-identical to cold" true (cold = warm);
  let st = Serve.stats svc in
  checki "one template compiled" 1 st.Serve.t_misses;
  check "second sweep hit the template cache" true (st.Serve.t_hits >= 1);
  checki "every point re-specialized the kernel slots"
    (2 * List.length sw.Serve.sw_points)
    st.Serve.specialized;
  checki "sweep points never enter the request cache" 0 st.Serve.entries;
  (* 8 identical sweeps racing on a cold service: one template compile,
     the other 7 wait for it and hit *)
  let svc = Serve.create ~backend:`Fused () in
  let raced = Array.make 8 [] in
  Quipper_sim.Pool.run ~domains:8 8 (fun i ->
      raced.(i) <- outcomes_of (Serve.submit_sweep svc sw));
  let st = Serve.stats svc in
  check "racing sweeps bit-identical to the cold one" true
    (Array.for_all (fun r -> r = cold) raced);
  checki "racing sweeps: one template compile" 1 st.Serve.t_misses;
  checki "racing sweeps: the rest hit" 7 st.Serve.t_hits

let test_template_lru () =
  let pool = Array.init 24 (fun i -> 0.13 *. float (i - 5)) in
  let mk ops = sweep_of (Gen.circuit_of_program ~n:3 ops) pool in
  let sw1 = mk [ Gen.H 0; Gen.Rz (0, 0.5); Gen.CNot (0, 1) ] in
  let sw2 = mk [ Gen.Rx (1, 0.2); Gen.CNot (1, 2); Gen.Rz (2, 0.9) ] in
  let svc = Serve.create ~backend:`Fused ~template_capacity:1 () in
  let r1 = outcomes_of (Serve.submit_sweep svc sw1) in
  let _ = Serve.submit_sweep svc sw2 in
  let st = Serve.stats svc in
  check "capacity bound respected" true (st.Serve.t_entries <= 1);
  check "second skeleton evicted the first" true (st.Serve.t_evictions >= 1);
  (* the evicted skeleton recompiles and still serves identically *)
  check "re-sweep after eviction is bit-identical" true
    (outcomes_of (Serve.submit_sweep svc sw1) = r1)

let test_request_lru () =
  let mk ops =
    {
      Serve.circuit = Gen.circuit_of_program ~n:2 ops;
      inputs = [ false; true ];
      shots = 4;
      seed = 7;
    }
  in
  let reqs =
    [ mk [ Gen.H 0; Gen.CNot (0, 1) ];
      mk [ Gen.X 0; Gen.H 1 ];
      mk [ Gen.H 1; Gen.CNot (1, 0) ] ]
  in
  let svc = Serve.create ~backend:`Fused ~capacity:1 () in
  List.iter
    (fun req ->
      check "bounded service still matches naive" true
        ((Serve.submit svc req).Serve.outcomes = Serve.naive svc req))
    reqs;
  let st = Serve.stats svc in
  check "request cache stays at capacity" true (st.Serve.entries <= 1);
  check "older entries were evicted" true (st.Serve.evictions >= 2);
  check "capacity below 1 rejected" true
    (match Serve.create ~capacity:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_sweep_empty_and_errors () =
  let b = Gen.circuit_of_program ~n:2 [ Gen.Rz (0, 0.5) ] in
  let sw =
    {
      Serve.sw_circuit = b;
      sw_inputs = [ false; true ];
      sw_points = [ [| 0.1 |] ];
      sw_shots = 4;
      sw_seed = 7;
    }
  in
  check "empty sweep" true
    (Serve.submit_sweep (Serve.create ()) { sw with Serve.sw_points = [] } = []);
  (* a bad-arity point fails alone; its neighbours still serve *)
  let mixed = { sw with Serve.sw_points = [ [| 0.1 |]; [| 0.2; 0.3 |] ] } in
  match Serve.submit_sweep (Serve.create ~backend:`Fused ()) mixed with
  | [ Ok _; Error _ ] -> ()
  | _ -> Alcotest.fail "expected first point Ok, second Error"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_skeleton_invariant;
    Alcotest.test_case "skeleton: structure and controls" `Quick
      test_skeleton_structure_sensitive;
    Alcotest.test_case "skeleton: resolves through boxes" `Quick
      test_skeleton_resolves_boxes;
    Alcotest.test_case "skeleton: equals hash when angle-free" `Quick
      test_skeleton_of_angle_free_circuit;
    Alcotest.test_case "subst_angles: arity check" `Quick test_subst_arity;
    QCheck_alcotest.to_alcotest prop_template_differential;
    Alcotest.test_case "template: boxed bodies, two call sites" `Quick
      test_template_boxed_replay;
    Alcotest.test_case "stream_opt memo: replays insensitive bodies" `Quick
      test_memo_replays_insensitive_body;
    Alcotest.test_case "stream_opt memo: angle-sensitive fallback" `Quick
      test_memo_angle_sensitive_fallback;
    QCheck_alcotest.to_alcotest prop_memo_differential;
    QCheck_alcotest.to_alcotest prop_sweep_matches_per_point;
    QCheck_alcotest.to_alcotest prop_sweep_clifford;
    Alcotest.test_case "sweep: optimizing service" `Quick
      test_sweep_optimized_service;
    Alcotest.test_case "sweep: warm template cache" `Quick
      test_sweep_warm_template;
    Alcotest.test_case "sweep: template LRU eviction" `Quick test_template_lru;
    Alcotest.test_case "serve: request LRU eviction" `Quick test_request_lru;
    Alcotest.test_case "sweep: empty and per-point errors" `Quick
      test_sweep_empty_and_errors;
  ]
