(* The decomposition probes of the traced run: each layer's public
   functions timed from outside on fixed seeded inputs, one probe per
   layer metric. The same probes run whatever the workload, so a layer
   metric means the same thing in every row; README.md maps each one to
   the end-to-end metric and workload it should move. Times are costs in
   [ref] (see calib.ml), so that two traced runs compare even when the
   machine's speed changed between them. *)

open Quipper
open Workloads
module Fuse = Quipper_sim.Fuse
module Statevector = Quipper_sim.Statevector
module Clifford = Quipper_sim.Clifford
module Kernel = Quipper_sim.Kernel

(* Median cost of [reps] runs of [f], each timed between two
   calibration loops, and the last run's result. *)
let cost reps f =
  let last = ref None in
  let _, costs =
    Calib.repeat ~domains:1
      ~until:(fun n _ -> n >= reps)
      (fun _ ->
        let r, s = timed f in
        last := Some r;
        s)
  in
  (Option.get !last, Stat.median costs)

(* Median cost per call of [f] over [reps] batches of [n] calls. *)
let per_call reps n f =
  snd
    (cost reps (fun () ->
         for _ = 1 to n do
           ignore (Sys.opaque_identity (f ()))
         done))
  /. float_of_int n

let null_sink ?(on_gate = ignore) ?(on_subroutine_exit = fun _ _ -> ()) () =
  Sink.make ~on_gate ~on_subroutine_exit ~finish:ignore ()

let probe ~scale ~seed : (string * float * string) list =
  let full = scale = Full in
  let reps = if full then 3 else 1 in
  let metrics = ref [] in
  let emit name value = metrics := (name, value, "ref") :: !metrics in
  let count name n = metrics := (name, float_of_int n, "count") :: !metrics in
  let dt = 0.05 +. (0.5 *. Rng.float (Rng.create seed)) in
  let n = if full then 8 else 4 in
  let bwt s = template { Algo_bwt.n; s; dt } in

  (* circ, sink: bwt_stream's phase (a), generation alone and into the
     counters *)
  let s_gen = if full then 60 else 1 in
  let gates = ref 0 in
  let (), gen =
    cost reps (fun () ->
        gates := 0;
        fst
          (Circ.run_streaming_unit (bwt s_gen)
             (null_sink ~on_gate:(fun _ -> incr gates) ())))
  in
  let _, counted =
    cost reps (fun () ->
        Circ.run_streaming_unit (bwt s_gen) (Sink.tee (Sink.gatecount ()) (Sink.depth ())))
  in
  emit "circ.gen_ref" gen;
  count "circ.gates_emitted" !gates;
  emit "sink.count_self_ref" (counted -. gen);

  (* circ, estimate: tf_estimate's fragments, generated alone and
     estimated *)
  let p = if full then tf_point else anchor in
  let shape = Qwtfp.regs_shape p in
  let boxes = ref 0 in
  let (), tf_gen =
    cost reps (fun () ->
        boxes := 0;
        let sink () = null_sink ~on_subroutine_exit:(fun _ _ -> incr boxes) () in
        ignore (Circ.run_streaming_unit (Qwtfp.a1_prologue ~p) (sink ()));
        ignore (Circ.run_streaming ~in_:shape (Qwtfp.a4_GCQWStep ~p) (sink ()));
        ignore (Circ.run_streaming ~in_:shape (Qwtfp.a1_epilogue ~p) (sink ())))
  in
  let _, estimate = cost reps (fun () -> tf_estimate_at p) in
  emit "circ.tf_gen_ref" tf_gen;
  count "circ.boxes_defined" !boxes;
  emit "estimate.total_ref" estimate;
  emit "estimate.self_ref" (estimate -. tf_gen);

  (* stream_opt: bwt_stream's phase (b), the optimizer's share *)
  let s_opt = if full then 4 else 1 in
  let _, opt_gen = cost reps (fun () -> Circ.run_streaming_unit (bwt s_opt) (null_sink ())) in
  let st = Stream_opt.stats_create () in
  let _, opt =
    cost 1 (fun () ->
        Circ.run_streaming_unit (bwt s_opt) (Stream_opt.sink ~stats:st (null_sink ())))
  in
  let _, round1 =
    cost reps (fun () ->
        Circ.run_streaming_unit (bwt s_opt) (Stream_opt.sink ~rounds:1 (null_sink ())))
  in
  emit "stream_opt.self_ref" (opt -. opt_gen);
  emit "stream_opt.round1_ref" (round1 -. opt_gen);
  count "stream_opt.seen" st.seen;
  count "stream_opt.emitted" st.emitted;
  count "stream_opt.cancelled" st.cancelled;
  count "stream_opt.fused" st.fused;
  count "stream_opt.flipped" st.flipped;
  count "stream_opt.const_controls" st.const_controls;
  count "stream_opt.const_deleted" st.const_deleted;
  count "stream_opt.boxes_optimized" st.boxes_optimized;
  count "stream_opt.box_hits" st.box_hits;

  (* passes: bwt_stream's phase (c), the materialized -O path *)
  let s_mat = if full then 2 else 1 in
  let b, generate =
    cost reps (fun () -> Algo_bwt.generate ~p:{ Algo_bwt.n; s = s_mat; dt } ~which:`Template ())
  in
  let (_, pstats), optimize = cost reps (fun () -> Passes.optimize b) in
  emit "passes.generate_ref" generate;
  emit "passes.optimize_ref" optimize;
  count "passes.rounds" (List.fold_left (fun m (s : Passes.stat) -> max m s.round) 0 pstats);

  (* circuit, clifford, fuse, statevector: serve_cold's prepare path on
     its own circuit, serve_hot's clifford path on a repetition code *)
  let g = Exact.build ~depth:(if full then 4 else 2) in
  let walk_c = walk g ~steps:2 ~dt in
  let angles = Circuit.angles walk_c in
  let calls = if full then 200 else 2 in
  emit "circuit.hash_ref" (per_call reps calls (fun () -> Circuit.hash walk_c));
  emit "circuit.hash_skeleton_ref" (per_call reps calls (fun () -> Circuit.hash_skeleton walk_c));
  emit "circuit.subst_angles_ref"
    (per_call reps calls (fun () ->
         Circuit.subst_angles walk_c (Array.map (fun a -> a *. 1.5) angles)));

  let code = repcode (if full then 5 else 3) in
  let code_out = code.Circuit.main.Circuit.outputs in
  let snap = Option.get (Clifford.snapshot (Clifford.run_circuit ~seed:1 code [])) in
  let rng = Rng.create seed in
  emit "clifford.prepare_ref"
    (per_call reps ((calls / 10) + 1) (fun () ->
         Clifford.snapshot (Clifford.run_circuit ~seed:1 code [])));
  emit "clifford.reject_ref"
    (snd
       (cost reps (fun () ->
            try ignore (Clifford.run_circuit ~seed:1 walk_c [])
            with Errors.Error (Errors.Simulation _) -> ())));
  emit "clifford.sample_ref"
    (per_call reps calls (fun () -> Clifford.sample_from snap ~rng code_out));

  let walk_out = walk_c.Circuit.main.Circuit.outputs in
  let fused, run = cost reps (fun () -> Fuse.run_circuit ~seed:1 walk_c []) in
  let fsnap = Option.get (Fuse.snapshot fused) in
  let tpl, compile = cost reps (fun () -> Fuse.compile_template walk_c []) in
  let fstats = Fuse.stats fused in
  emit "fuse.run_ref" run;
  emit "fuse.snapshot_ref" (per_call reps calls (fun () -> Fuse.snapshot fused));
  emit "fuse.template_compile_ref" compile;
  emit "fuse.template_run_ref"
    (snd
       (cost reps (fun () ->
            Fuse.run_template ~seed:1 tpl (Array.map (fun a -> a *. 1.5) angles))));
  count "fuse.blocks_applied" fstats.blocks_applied;
  count "fuse.singles_applied" fstats.singles_applied;
  count "fuse.gates_fused" fstats.gates_fused;

  emit "statevector.run_ref"
    (snd (cost reps (fun () -> Statevector.run_circuit ~seed:1 walk_c [])));
  emit "statevector.sample_ref"
    (per_call reps calls (fun () -> Statevector.sample_from fsnap ~rng walk_out));

  (* kernel: sim_wide's 20-qubit circuit, past Kernel.threshold, at one
     and two domains *)
  let wide_g = Exact.build ~depth:(if full then 7 else 2) in
  let wide = colour_step wide_g ~colour:3 ~start:(colour3_ends wide_g).(0) ~dt in
  let at_domains d =
    Kernel.num_domains := d;
    let _, c = cost 1 (fun () -> Fuse.run_circuit ~seed:1 wide []) in
    Kernel.num_domains := domains;
    c
  in
  emit "kernel.run_d1_ref" (at_domains 1);
  emit "kernel.run_d2_ref" (at_domains 2);

  (* serve: cache lookup, warm submits, serve_hot's batch call at one
     and two domains, then a fixed miss/evict/sweep sequence for the
     counters *)
  let svc = Serve.create ~capacity:4 () in
  let g2 = Exact.build ~depth:2 in
  let hot = [| walk g2 ~steps:1 ~dt; walk g2 ~steps:2 ~dt; repcode 3; repcode 5 |] in
  let shots = if full then 64 else 8 in
  Array.iter (fun c -> ignore (Serve.submit svc (request c ~shots:1 ~seed))) hot;
  emit "serve.lookup_ref"
    (per_call reps calls (fun () -> Serve.submit svc (request hot.(2) ~shots:0 ~seed)));
  emit "serve.submit_ref"
    (per_call reps ((calls / 10) + 1) (fun () -> Serve.submit svc (request hot.(0) ~shots ~seed)));
  let batch = List.init 8 (fun j -> request hot.(j mod 4) ~shots ~seed:(Rng.derive seed j)) in
  let call_at d =
    Kernel.num_domains := d;
    let c = per_call reps ((calls / 10) + 1) (fun () -> Serve.submit_batch svc batch) in
    Kernel.num_domains := domains;
    c
  in
  emit "serve.call_seq_ref" (call_at 1);
  emit "serve.call_par_ref" (call_at 2);
  List.iter
    (fun dt -> ignore (Serve.submit svc (request (walk g2 ~steps:1 ~dt) ~shots:1 ~seed)))
    [ 0.11; 0.12 ];
  let sweep =
    {
      Serve.sw_circuit = hot.(0);
      sw_inputs = [];
      sw_points =
        List.init 4 (fun k ->
            Array.map (fun a -> a *. float_of_int (k + 1)) (Circuit.angles hot.(0)));
      sw_shots = 4;
      sw_seed = seed;
    }
  in
  ignore (Serve.submit_sweep svc sweep);
  ignore (Serve.submit_sweep svc sweep);
  let st = Serve.stats svc in
  count "serve.hits" st.hits;
  count "serve.misses" st.misses;
  count "serve.prepares" st.prepares;
  count "serve.evictions" st.evictions;
  count "serve.t_hits" st.t_hits;
  count "serve.t_misses" st.t_misses;
  count "serve.specialized" st.specialized;
  metrics :=
    ("serve.hit_ratio", float_of_int st.hits /. float_of_int (st.hits + st.misses), "ratio")
    :: !metrics;
  List.rev !metrics
