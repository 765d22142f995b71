(* The five workloads. Each is a closed loop with one client: [setup]
   builds the inputs from the seed and warms what a long-running user
   would have warm, and returns the operation the loop repeats. An
   operation times only its calls into the system under test; input
   generation and correctness checks run outside that time. Operations
   are kept short (a few milliseconds to under a second) so that a run
   holds enough of them for its medians to be steady. Why each workload
   exists is recorded in README.md. *)

open Quipper
module Rng = Quipper_math.Rng
module Serve = Quipper_serve
module Estimate = Quipper_estimate.Estimate
module Wide = Quipper_estimate.Wide
module Stream_opt = Quipper_opt.Stream_opt
module Passes = Quipper_opt.Passes
module Qureg = Quipper_arith.Qureg
module Qwtfp = Algo_tf.Qwtfp
module Exact = Algo_bwt.Exact

type scale = Full | Smoke

(* The service's worker count: this machine's core count, fixed here and
   never read from the environment, so every machine and every commit
   runs the same fan-out. *)
let domains = 2

type op = {
  seconds : float;  (** time inside the calls into the system under test *)
  attempted : int;  (** requests, sweep points or estimates sent *)
  failed : int;  (** of which came back as errors *)
  digest : string;
      (** operation 0 only, else [""]: a hash of its outputs, which depend
          on the seed alone, so two commits' runs at one seed must agree *)
}

type t = {
  name : string;
  calib_domains : int;
      (** domains the calibration loop runs on (see calib.ml): 2 where an
          operation's time is mostly spawning and joining domains *)
  setup : scale:scale -> seed:int -> int -> op;
      (** build and warm; the result serves operation [i] *)
}

(* Every failed check is reported on stderr and turns the run's
   [correct] flag off; the run carries on so that one bad reply does
   not hide the rest. *)
let correct = ref true

let check ok what =
  if not ok then begin
    correct := false;
    Printf.eprintf "check failed: %s\n%!" what
  end

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [outputs] are hashed for operation 0 only. Marshalling without
   sharing makes the hash depend on the values alone, not on which
   arrays a backend happened to share. *)
let op ?(attempted = 1) ?(failed = 0) i outputs seconds =
  let digest =
    if i <> 0 then ""
    else Digest.to_hex (Digest.string (Marshal.to_string outputs [ Marshal.No_sharing ]))
  in
  { seconds; attempted; failed; digest }

let walk g ~steps ~dt = fst (Circ.generate_unit (Exact.walk g ~steps ~dt))
let repcode d = Algo_repcode.generate ~p:{ Algo_repcode.distance = d; rounds = d } ()
let request circuit ~shots ~seed = { Serve.circuit; inputs = []; shots; seed }

let errors replies =
  List.length (List.filter (function Error _ -> true | Ok _ -> false) replies)

let outcomes = List.map (function Ok r -> r.Serve.outcomes | Error _ -> [||])

let same_outcomes expected replies =
  List.length expected = List.length replies
  && List.for_all2
       (fun e -> function Ok r -> r.Serve.outcomes = e | Error _ -> false)
       expected replies

(* ------------------------------------------------------------------ *)
(* tf_estimate: symbolic resource estimation of the triangle finder     *)

(* Composed exactly as bin/tf.ml's --estimate: prologue ; a4^R1 ;
   epilogue. *)
let tf_estimate_at (p : Algo_tf.Oracle.params) =
  let shape = Qwtfp.regs_shape p in
  let span name f = Trace.span "estimate" name f in
  let prologue =
    span "Estimate.of_circ_unit a1_prologue" (fun () ->
        Estimate.of_circ_unit (Qwtfp.a1_prologue ~p))
  in
  let step =
    span "Estimate.of_circ a4_GCQWStep" (fun () ->
        Estimate.of_circ ~in_:shape (fun regs -> Qwtfp.a4_GCQWStep ~p regs))
  in
  let epilogue =
    span "Estimate.of_circ a1_epilogue" (fun () ->
        Estimate.of_circ ~in_:shape (fun regs -> Qwtfp.a1_epilogue ~p regs))
  in
  span "Estimate.seq+repeat" (fun () ->
      Estimate.seq prologue
        (Estimate.seq (Estimate.repeat (Qwtfp.r1_iterations p) step) epilogue))

let anchor = { Algo_tf.Oracle.l = 2; n = 2; r = 1 }

(* The paper's l and n at r=4. One estimate at the paper point (r=6)
   takes about 11 s, one sample per run; r=4 runs the same code in a
   quarter of a second. The paper point's 24,603,711,263,407 gates are
   checked by CI. The totals were recorded from this code. *)
let tf_point = { Algo_tf.Oracle.l = 31; n = 15; r = 4 }
let tf_point_total = "3096690234577"
let tf_point_qubits = 1743

(* tf has no generated input, so the seed changes nothing here. *)
let tf_estimate =
  {
    name = "tf_estimate";
    calib_domains = 1;
    setup =
      (fun ~scale ~seed:_ ->
        let streamed, _ =
          Circ.run_streaming_unit (Qwtfp.a1_QWTFP ~p:anchor) (Sink.gatecount ())
        in
        check
          (Estimate.agrees (tf_estimate_at anchor) streamed)
          "tf_estimate: estimate differs from the streamed count at l=2 n=2 r=1";
        let p, total, qubits =
          match scale with
          | Full -> (tf_point, tf_point_total, tf_point_qubits)
          | Smoke -> (anchor, string_of_int streamed.total, streamed.qubits)
        in
        fun i ->
          let est, s = timed (fun () -> tf_estimate_at p) in
          let outputs = (Wide.to_string (Estimate.total est), Estimate.peak_wires est) in
          check (outputs = (total, qubits))
            "tf_estimate: total gates or qubits differ from the recorded ones";
          op i outputs s);
  }

(* ------------------------------------------------------------------ *)
(* bwt_stream: streamed count, streamed -O, materialized -O             *)

let template p = Algo_bwt.whole ~p (Algo_bwt.template_oracle p)

(* Template oracle at n=8, whatever the Trotter step: [s] timesteps
   emit 2020 gates each plus 32 of frame, and the streaming optimizer
   keeps 800 logical gates per timestep less 372. *)
let bwt_total s = (2020 * s) + 32
let bwt_kept s = (800 * s) - 372

let summary_text s = Fmt.str "%a" Gatecount.pp_summary s

let bwt_stream =
  {
    name = "bwt_stream";
    calib_domains = 1;
    setup =
      (fun ~scale ~seed ->
        let dt = 0.05 +. (0.5 *. Rng.float (Rng.create seed)) in
        let p s = { Algo_bwt.n = 8; s; dt } in
        (* timesteps of (a) streamed count, (b) streamed -O and
           (c) materialized -O; each phase takes 50-100 ms *)
        let s_a, s_b, s_c = match scale with Full -> (60, 4, 2) | Smoke -> (1, 1, 1) in
        let reference_c =
          summary_text
            (fst
               (Circ.run_streaming_unit (template (p s_c))
                  (Stream_opt.sink (Sink.gatecount ()))))
        in
        fun i ->
          let (count, depth), t_a =
            timed (fun () ->
                Trace.span "circ" "Circ.run_streaming_unit gatecount+depth" (fun () ->
                    fst
                      (Circ.run_streaming_unit (template (p s_a))
                         (Sink.tee (Sink.gatecount ()) (Sink.depth ())))))
          in
          check (count.Gatecount.total = bwt_total s_a)
            "bwt_stream (a): streamed gate total";
          let (before, after), t_b =
            timed (fun () ->
                Trace.span "stream_opt" "Circ.run_streaming_unit Stream_opt.sink"
                  (fun () ->
                    fst
                      (Circ.run_streaming_unit (template (p s_b))
                         (Sink.tee (Sink.gatecount ())
                            (Stream_opt.sink (Sink.gatecount ()))))))
          in
          check
            (before.Gatecount.total = bwt_total s_b
            && after.Gatecount.total_logical = bwt_kept s_b)
            "bwt_stream (b): streamed -O gate counts";
          let optimized, t_c =
            timed (fun () ->
                let b =
                  Trace.span "circ" "Algo_bwt.generate" (fun () ->
                      Algo_bwt.generate ~p:(p s_c) ~which:`Template ())
                in
                let b, _ =
                  Trace.span "passes" "Passes.optimize" (fun () -> Passes.optimize b)
                in
                Trace.span "sink" "Gatecount.summarize" (fun () ->
                    Gatecount.summarize b))
          in
          check
            (summary_text optimized = reference_c)
            "bwt_stream (c): materialized -O differs from streamed -O";
          op i
            (List.map summary_text [ count; before; after; optimized ], depth)
            (t_a +. t_b +. t_c));
  }

(* ------------------------------------------------------------------ *)
(* serve_hot: warm-cache batches                                        *)

let serve_hot =
  {
    name = "serve_hot";
    calib_domains = domains;
    setup =
      (fun ~scale ~seed ->
        let dt = 0.1 +. (0.4 *. Rng.float (Rng.create seed)) in
        let g = Exact.build ~depth:2 in
        let circuits =
          [| walk g ~steps:1 ~dt; walk g ~steps:2 ~dt; repcode 3; repcode 5 |]
        in
        let svc = Serve.create () in
        let backends =
          Array.map
            (fun c -> (Serve.submit svc (request c ~shots:1 ~seed)).Serve.backend)
            circuits
        in
        check
          (backends = [| "fused"; "fused"; "clifford"; "clifford" |])
          "serve_hot: warm-up served by unexpected backends";
        let shots = match scale with Full -> 64 | Smoke -> 8 in
        fun i ->
          (* every batch holds two requests per circuit, so calls cost alike *)
          let reqs =
            List.init 8 (fun j ->
                request circuits.(j mod 4) ~shots ~seed:(Rng.derive seed ((8 * i) + j)))
          in
          let replies, s =
            timed (fun () ->
                Trace.span "serve" "Serve.submit_batch" (fun () ->
                    Serve.submit_batch svc reqs))
          in
          if i mod 500 = 0 then
            check
              (same_outcomes (List.map (Serve.naive svc) reqs) replies)
              "serve_hot: batch differs from the naive per-shot path";
          op ~attempted:8 ~failed:(errors replies) i (outcomes replies) s);
  }

(* ------------------------------------------------------------------ *)
(* serve_cold: every request prepares; sweeps re-specialize             *)

let serve_cold =
  {
    name = "serve_cold";
    calib_domains = 1;
    setup =
      (fun ~scale ~seed ->
        let depth, shots = match scale with Full -> (4, 16) | Smoke -> (2, 4) in
        let points = 4 in
        let g = Exact.build ~depth in
        let base_dt = 0.3 in
        let templates = [| walk g ~steps:1 ~dt:base_dt; walk g ~steps:2 ~dt:base_dt |] in
        let sweep rng tpl ~sw_seed =
          let base = Circuit.angles tpl in
          let lo = 0.05 +. (0.2 *. Rng.float rng) in
          {
            Serve.sw_circuit = tpl;
            sw_inputs = [];
            sw_points =
              List.init points (fun k ->
                  let x = lo +. (0.4 *. float_of_int k /. float_of_int (points - 1)) in
                  Array.map (fun a -> a /. base_dt *. x) base);
            sw_shots = shots;
            sw_seed;
          }
        in
        let fresh_walks rng n ~seed =
          List.init n (fun j ->
              request
                (walk g ~steps:(1 + (j mod 2)) ~dt:(0.05 +. (0.5 *. Rng.float rng)))
                ~shots ~seed:(Rng.derive seed j))
        in
        (* a long-running service is full: the cache starts at its
           capacity, so every new circuit evicts one; both sweep
           templates compile here *)
        let capacity = match scale with Full -> 16 | Smoke -> 2 in
        let svc = Serve.create ~capacity () in
        let rng = Rng.create seed in
        ignore (Serve.submit_batch svc (fresh_walks rng capacity ~seed));
        Array.iter
          (fun tpl -> ignore (Serve.submit_sweep svc (sweep rng tpl ~sw_seed:seed)))
          templates;
        fun i ->
          let rng = Rng.create (Rng.derive seed i) in
          (* two walks at fresh Trotter steps: never seen before *)
          let reqs = fresh_walks rng 2 ~seed:(Rng.derive seed i) in
          let sweeps =
            Array.to_list
              (Array.mapi
                 (fun k tpl -> sweep rng tpl ~sw_seed:(Rng.derive seed ((2 * i) + k)))
                 templates)
          in
          let (batch, swept), s =
            timed (fun () ->
                ( Trace.span "serve" "Serve.submit_batch" (fun () ->
                      Serve.submit_batch svc reqs),
                  List.map
                    (fun sw ->
                      Trace.span "serve" "Serve.submit_sweep" (fun () ->
                          Serve.submit_sweep svc sw))
                    sweeps ))
          in
          if i mod 20 = 0 then begin
            let fresh = Serve.create () in
            check
              (same_outcomes (List.map (Serve.naive fresh) reqs) batch)
              "serve_cold: batch differs from the naive per-shot path";
            List.iter2
              (fun sw replies ->
                let per_point =
                  Serve.submit_batch (Serve.create ()) (Serve.sweep_requests sw)
                in
                check
                  (same_outcomes (outcomes per_point) replies)
                  "serve_cold: sweep differs from per-point requests")
              sweeps swept
          end;
          let replies = batch @ List.concat swept in
          op ~attempted:(List.length replies) ~failed:(errors replies) i (outcomes replies) s);
  }

(* ------------------------------------------------------------------ *)
(* sim_wide: cold 20-qubit preparations                                 *)

(* One colour of a depth-7 walk's timestep, from vertex [start]: 1,820
   gates on 20 qubits, the whole walk's peak width in a tenth of its
   gates. *)
let colour_step g ~colour ~start ~dt =
  fst
    (Circ.generate_unit
       (let open Circ in
        let* a = Qureg.init ~width:g.Exact.label_bits start in
        let* b, r = Exact.neighbour g ~colour a in
        let* () = Algo_bwt.timestep ~dt a b r in
        let* () = Exact.unneighbour g ~colour a b r in
        return a))

(* The vertices with an edge of colour 3. Stepping from one of them
   moves amplitude to its neighbour, so the outcomes vary with the step
   and the seed; from the entrance, which has no such edge, every shot
   would measure the entrance. *)
let colour3_ends g =
  Array.of_list (List.concat_map (fun (u, v, c) -> if c = 3 then [ u; v ] else []) g.Exact.edges)

let sim_wide =
  {
    name = "sim_wide";
    calib_domains = 1;
    setup =
      (fun ~scale ~seed ->
        let depth, shots = match scale with Full -> (7, 64) | Smoke -> (2, 8) in
        let g = Exact.build ~depth in
        let ends = colour3_ends g in
        fun i ->
          let rng = Rng.create (Rng.derive seed i) in
          let dt = 0.05 +. (0.5 *. Rng.float rng) in
          let start = ends.(Rng.int rng (Array.length ends)) in
          let req =
            request (colour_step g ~colour:3 ~start ~dt) ~shots ~seed:(Rng.derive seed i)
          in
          let reply, s =
            timed (fun () ->
                Trace.span "serve" "Serve.create+submit" (fun () ->
                    try [ Ok (Serve.submit (Serve.create ()) req) ]
                    with e -> [ Error (Printexc.to_string e) ]))
          in
          (* the unfused statevector reference must give the same shots *)
          if i = 0 then
            check
              (same_outcomes
                 [ (Serve.submit (Serve.create ~backend:`Statevector ()) req).outcomes ]
                 reply)
              "sim_wide: fused outcomes differ from the statevector reference";
          op ~failed:(errors reply) i (outcomes reply) s);
  }

let all = [ tf_estimate; bwt_stream; serve_hot; serve_cold; sim_wide ]
