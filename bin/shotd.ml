(* The shot-service front end: batched many-shot execution over
   [Quipper_serve] — a CLI batch mode (generate a workload circuit once,
   submit R requests of N shots across C concurrent clients, report
   shots/sec, cache behaviour and an outcome digest) and a line-oriented
   daemon loop for driving the service interactively or from scripts.

   Outcomes are seed-reproducible: shot [s] of request [r] is a function
   of [derive (derive seed r) s] alone, so two invocations at the same
   seed print the same digest whatever the client count. *)

open Cmdliner
module Serve = Quipper_serve
module Rng = Quipper_math.Rng
module Kernel = Quipper_sim.Kernel

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

let bwt_workload ~n ~s ~dt : Quipper.Circuit.b * bool list =
  (* the exact welded-tree instance, walked but *not* measured: the
     pre-measurement state the service freezes and samples from *)
  let g = Algo_bwt.Exact.build ~depth:n in
  let b, _ = Quipper.Circ.generate_unit (Algo_bwt.Exact.walk g ~steps:s ~dt) in
  (b, [])

let repcode_workload ~distance ~rounds : Quipper.Circuit.b * bool list =
  let p =
    { Algo_repcode.distance; rounds = (if rounds > 0 then rounds else distance) }
  in
  (Algo_repcode.generate ~p (), [])

let tf_workload () : Quipper.Circuit.b * bool list =
  (* the triangle-finding o4_POW17 oracle segment on an all-zero input
     register. l is pinned at 2: the arithmetic's ancilla blocks put
     larger instances past the statevector's 25-live-qubit cap. This
     reproduction's tf gate set carries no rotation angles, so sweeping
     it is the degenerate case: every point shares the skeleton entry —
     exactly the template cache's fast path for angle-free families *)
  let p = { Algo_tf.Oracle.l = 2; n = 2; r = 1 } in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let arity = List.length b.Quipper.Circuit.main.Quipper.Circuit.inputs in
  (b, List.init arity (fun _ -> false))

let workload name ~n ~s ~dt ~distance ~rounds =
  match name with
  | "bwt" -> bwt_workload ~n ~s ~dt
  | "tf" -> tf_workload ()
  | "repcode" -> repcode_workload ~distance ~rounds
  | w -> Fmt.failwith "unknown workload %S (try bwt, tf, repcode)" w

let parse_backend = function
  | "auto" -> `Auto
  | "clifford" -> `Clifford
  | "fused" -> `Fused
  | "statevector" -> `Statevector
  | s -> Fmt.failwith "unknown backend %S (try auto, clifford, fused, statevector)" s

(* A tiny order-sensitive digest over every shot of every reply, for
   reproducibility checks (CI runs the same batch twice and diffs). *)
let digest (replies : (Serve.reply, string) result list) : int64 =
  let mix h v =
    let open Int64 in
    let z = add (logxor h v) 0x9E3779B97F4A7C15L in
    mul (logxor z (shift_right_logical z 29)) 0xBF58476D1CE4E5B9L
  in
  List.fold_left
    (fun h -> function
      | Error e -> String.fold_left (fun h c -> mix h (Int64.of_int (Char.code c))) h e
      | Ok (r : Serve.reply) ->
          Array.fold_left
            (fun h shot ->
              Array.fold_left (fun h b -> mix h (if b then 1L else 0L)) h shot)
            h r.Serve.outcomes)
    0x51D07C1B9E6A2F35L replies

(* ------------------------------------------------------------------ *)
(* Batch mode                                                          *)

let run_batch wl n s dt distance rounds shots requests clients seed backend check
    optimize domains =
  Quipper_cli.set_domains domains;
  let circuit, inputs = workload wl ~n ~s ~dt ~distance ~rounds in
  let svc = Serve.create ~backend:(parse_backend backend) ~optimize () in
  let reqs =
    List.init requests (fun r ->
        { Serve.circuit; inputs; shots; seed = Rng.derive seed r })
  in
  (* [clients] concurrent clients = the batch splits into that many
     request chunks, served on the process-wide pool *)
  let saved = !Kernel.num_domains in
  if clients > 0 then Kernel.num_domains := clients;
  let t0 = Unix.gettimeofday () in
  let replies = Serve.submit_batch svc reqs in
  let elapsed = Unix.gettimeofday () -. t0 in
  Kernel.num_domains := saved;
  let served = List.filter_map Result.to_option replies in
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) replies
  in
  let sampled = List.fold_left (fun a r -> a + r.Serve.sampled) 0 served in
  let resim = List.fold_left (fun a r -> a + r.Serve.resimulated) 0 served in
  let total_shots = sampled + resim in
  let backend_names =
    List.sort_uniq String.compare (List.map (fun r -> r.Serve.backend) served)
  in
  Fmt.pr "workload %s: %d requests x %d shots, %d clients, backend %s@." wl
    requests shots
    (if clients > 0 then clients else min !Kernel.num_domains requests)
    (String.concat "+" backend_names);
  Fmt.pr "served %d shots in %.3fs: %.0f shots/s (%d sampled, %d resimulated)@."
    total_shots elapsed
    (float_of_int total_shots /. Float.max elapsed 1e-9)
    sampled resim;
  Fmt.pr "cache: %a@." Serve.pp_stats (Serve.stats svc);
  Fmt.pr "digest: 0x%Lx@." (digest replies);
  List.iter (fun e -> Fmt.epr "request error: %s@." e) errors;
  let failed = errors <> [] in
  let check_failed =
    check
    && List.exists
         (fun (req, reply) ->
           match reply with
           | Error _ -> true
           | Ok r -> Serve.naive svc req <> r.Serve.outcomes)
         (List.combine reqs replies)
  in
  if check then
    Fmt.pr "Shot check: %s@." (if check_failed then "FAIL" else "PASS");
  if failed || check_failed then 1 else 0

(* ------------------------------------------------------------------ *)
(* Sweep mode: the same workload skeleton at many rotation angles       *)

(* Every rotation site of the BWT walk carries the Trotter step [dt]
   (the workload's only angle parameter), so a sweep point at step [x]
   scales each base angle by [x / dt] — exact for any workload whose
   sites are linear in [dt] with zero intercept. Workloads with no
   angle sites (tf, repcode) sweep trivially: every point is the same
   circuit at its own derived seed, served from one shared clifford
   preparation or one compiled template. *)
let sweep_points ~base ~dt ~points ~lo ~hi =
  if Array.length base > 0 && Float.abs dt < 1e-12 then
    Fmt.failwith "sweep: base --dt must be nonzero to scale the angle sites";
  List.init points (fun i ->
      let x =
        if points <= 1 then lo
        else lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1))
      in
      Array.map (fun a -> a /. dt *. x) base)

let run_sweep wl n s dt distance rounds shots points lo hi repeat seed backend
    check optimize domains =
  Quipper_cli.set_domains domains;
  let circuit, inputs = workload wl ~n ~s ~dt ~distance ~rounds in
  let base = Quipper.Circuit.angles circuit in
  let svc = Serve.create ~backend:(parse_backend backend) ~optimize () in
  let sw =
    {
      Serve.sw_circuit = circuit;
      sw_inputs = inputs;
      sw_points = sweep_points ~base ~dt ~points ~lo ~hi;
      sw_shots = shots;
      sw_seed = seed;
    }
  in
  Fmt.pr "workload %s: %d points x %d shots, %d angle sites, backend %s@." wl
    points shots (Array.length base) backend;
  let last = ref [] in
  let first_digest = ref 0L in
  let drift = ref false in
  for r = 1 to max 1 repeat do
    let t0 = Unix.gettimeofday () in
    let replies = Serve.submit_sweep svc sw in
    let elapsed = Unix.gettimeofday () -. t0 in
    let d = digest replies in
    if r = 1 then first_digest := d else if d <> !first_digest then drift := true;
    Fmt.pr "run %d: %d shots in %.3fs: %.0f shots/s@." r (points * shots)
      elapsed
      (float_of_int (points * shots) /. Float.max elapsed 1e-9);
    last := replies
  done;
  Fmt.pr "cache: %a@." Serve.pp_stats (Serve.stats svc);
  Fmt.pr "digest: 0x%Lx@." !first_digest;
  if !drift then Fmt.epr "sweep error: digests drifted across runs@.";
  let errors =
    List.filter_map (function Error e -> Some e | Ok _ -> None) !last
  in
  List.iter (fun e -> Fmt.epr "point error: %s@." e) errors;
  let check_failed =
    check
    &&
    (* the acceptance property: the sweep path is bit-identical to
       submitting each angle-substituted circuit as its own request —
       through a fresh service, so nothing warm leaks into the
       reference *)
    let ref_svc = Serve.create ~backend:(parse_backend backend) ~optimize () in
    let naive = Serve.submit_batch ref_svc (Serve.sweep_requests sw) in
    let same = digest naive = !first_digest in
    Fmt.pr "Sweep check: %s@." (if same then "PASS" else "FAIL");
    not same
  in
  if errors <> [] || !drift || check_failed then 1 else 0

(* ------------------------------------------------------------------ *)
(* Daemon mode: one request per stdin line, "SHOTS SEED" (or "quit"),   *)
(* against the workload fixed at startup — the cache makes every line   *)
(* after the first a hit                                                *)

let submit_line svc circuit inputs ~shots ~seed =
  match Serve.submit svc { Serve.circuit; inputs; shots; seed } with
  | r ->
      Fmt.pr "ok backend=%s hit=%b sampled=%d resimulated=%d digest=0x%Lx@."
        r.Serve.backend r.Serve.cache_hit r.Serve.sampled r.Serve.resimulated
        (digest [ Ok r ])
  | exception e -> Fmt.pr "error: %s@." (Printexc.to_string e)

let run_daemon wl n s dt distance rounds backend optimize domains =
  Quipper_cli.set_domains domains;
  let circuit, inputs = workload wl ~n ~s ~dt ~distance ~rounds in
  let svc = Serve.create ~backend:(parse_backend backend) ~optimize () in
  Fmt.pr "shotd: serving %s; lines are \"SHOTS SEED\", \"stats\" or \"quit\"@." wl;
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> 0
    | "quit" -> 0
    | "stats" ->
        Fmt.pr "%a@." Serve.pp_stats (Serve.stats svc);
        loop ()
    | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ shots; seed ] -> (
            match (int_of_string_opt shots, int_of_string_opt seed) with
            | Some shots, Some seed ->
                submit_line svc circuit inputs ~shots ~seed;
                loop ()
            | _ ->
                Fmt.pr "error: expected \"SHOTS SEED\"@.";
                loop ())
        | _ ->
            Fmt.pr "error: expected \"SHOTS SEED\"@.";
            loop ())
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let workload_arg =
  Arg.(
    value & opt string "bwt"
    & info [ "w"; "workload" ] ~docv:"W"
        ~doc:"Workload circuit: $(b,bwt) (exact welded-tree walk, statevector \
              territory), $(b,tf) (triangle-finding POW17 oracle segment, \
              boxed arithmetic) or $(b,repcode) (repetition-code memory, all \
              Clifford).")

let n_arg =
  Arg.(
    value & opt int 2
    & info [ "n" ] ~docv:"N" ~doc:"BWT tree depth (labels are n+2 bits).")

let s_arg =
  Arg.(value & opt int 1 & info [ "s" ] ~docv:"S" ~doc:"BWT walk timesteps.")

let dt_arg =
  Arg.(value & opt float 0.3 & info [ "dt" ] ~docv:"DT" ~doc:"BWT Trotter step.")

let distance_arg =
  Arg.(
    value & opt int 3
    & info [ "d"; "distance" ] ~docv:"D" ~doc:"Repetition-code distance (odd).")

let rounds_arg =
  Arg.(
    value & opt int 0
    & info [ "r"; "rounds" ] ~docv:"R"
        ~doc:"Repetition-code syndrome rounds (0 = one per unit of distance).")

let shots_arg =
  Arg.(value & opt int 256 & info [ "shots" ] ~docv:"N" ~doc:"Shots per request.")

let requests_arg =
  Arg.(
    value & opt int 8
    & info [ "requests" ] ~docv:"R"
        ~doc:"Independent requests in the batch (all for the same circuit, \
              distinct derived seeds — every request after the first hits the \
              cache).")

let clients_arg =
  Arg.(
    value & opt int 0
    & info [ "clients" ] ~docv:"C"
        ~doc:"Concurrent clients (request chunks the batch splits into, \
              served by a worker pool capped at the core count; 0 = the \
              domain default). Throughput scales, outcomes do not change.")

let backend_arg =
  Arg.(
    value & opt string "auto"
    & info [ "backend" ] ~docv:"B"
        ~doc:"Serving backend: auto, clifford, fused or statevector.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"After serving, re-run every shot through the naive per-shot \
              rebuild+resimulate path and verify bit-identity (prints \
              \"Shot check: PASS\").")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run each circuit through the streaming peephole optimizer once \
              at preparation time (amortized across cached requests). \
              Outcomes stay equal in distribution; $(b,--check) compares \
              against a naive path that applies the same rewrite.")

let points_arg =
  Arg.(
    value & opt int 64
    & info [ "points" ] ~docv:"P"
        ~doc:"Parameter points in the sweep (one request's worth of shots \
              each, at derived seeds).")

let dt_min_arg =
  Arg.(
    value & opt float 0.05
    & info [ "dt-min" ] ~docv:"X" ~doc:"Smallest swept Trotter step.")

let dt_max_arg =
  Arg.(
    value & opt float 0.6
    & info [ "dt-max" ] ~docv:"X" ~doc:"Largest swept Trotter step.")

let repeat_arg =
  Arg.(
    value & opt int 1
    & info [ "repeat" ] ~docv:"R"
        ~doc:"Serve the sweep R times against the same service: every run \
              after the first hits the cached skeleton template (the warm \
              path the template cache exists for).")

let batch_cmd =
  let doc = "Serve one batch of shot requests and report throughput." in
  Cmd.v (Cmd.info "batch" ~doc)
    Term.(
      const run_batch $ workload_arg $ n_arg $ s_arg $ dt_arg $ distance_arg
      $ rounds_arg $ shots_arg $ requests_arg $ clients_arg
      $ Quipper_cli.seed_arg $ backend_arg $ check_arg $ optimize_arg
      $ Quipper_cli.domains_arg)

let sweep_cmd =
  let doc =
    "Serve a rotation-angle parameter sweep: one circuit skeleton, many \
     Trotter steps, the fused block program compiled once and \
     re-specialized per point."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run_sweep $ workload_arg $ n_arg $ s_arg $ dt_arg $ distance_arg
      $ rounds_arg $ shots_arg $ points_arg $ dt_min_arg $ dt_max_arg
      $ repeat_arg $ Quipper_cli.seed_arg $ backend_arg $ check_arg
      $ optimize_arg $ Quipper_cli.domains_arg)

let daemon_cmd =
  let doc = "Serve shot requests line by line from standard input." in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const run_daemon $ workload_arg $ n_arg $ s_arg $ dt_arg $ distance_arg
      $ rounds_arg $ backend_arg $ optimize_arg $ Quipper_cli.domains_arg)

let cmd =
  let doc =
    "Shot service: batched many-shot circuit execution (simulate once, sample \
     N times)."
  in
  Cmd.group (Cmd.info "shotd" ~doc) [ batch_cmd; sweep_cmd; daemon_cmd ]

let () = exit (Cmd.eval' cmd)
