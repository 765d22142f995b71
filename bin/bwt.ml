(* The [bwt] command line: generate the Binary Welded Tree circuit with
   the hand-coded ("orthodox") oracle, the template (lifted) oracle, or
   the QCL-style baseline generator — the three columns of the paper's §6
   comparison table. *)

open Cmdliner
open Quipper

(* Streaming mode: run the same circuit-producing function through
   [Circ.run_streaming] instead of materializing the buffer. Memory per
   gate is O(1), so instances far beyond RAM become countable — the
   paper's §5.4 scaling argument — while the output stays byte-identical
   to the materialized path. *)
let run_stream which format p =
  let circ : Wire.bit array Circ.t =
    match which with
    | "orthodox" -> Algo_bwt.whole ~p (Algo_bwt.orthodox_oracle p)
    | "template" -> Algo_bwt.whole ~p (Algo_bwt.template_oracle p)
    | "qcl" -> Qcl_baseline.Bwt_qcl.whole ~p
    | s -> Errors.invalidf "unknown oracle %S (try orthodox, template, qcl)" s
  in
  (match format with
  | "gatecount" ->
      let summary, _ = Circ.run_streaming_unit circ (Sink.gatecount ()) in
      Fmt.pr "%a@." Gatecount.pp_summary summary
  | "text" ->
      let (), _ = Circ.run_streaming_unit circ (Sink.printer Fmt.stdout) in
      Fmt.pr "@."
  | f -> Errors.invalidf "--stream supports gatecount and text, not %S" f);
  0

(* Streaming optimisation: interpose the windowed peephole transformer
   between generation and the counting sinks, tee-ing unoptimized
   before-counters off the same single pass. The report layout matches
   [Passes.optimize_and_report] followed by the gatecount branch, so at
   parameters where the window covers what the materialized fixpoint
   finds, the output is byte-identical to [-O] without [--stream] —
   while memory stays O(window) however large [s] is. *)
let run_stream_opt which format p verbose =
  let module Stream_opt = Quipper_opt.Stream_opt in
  (match format with
  | "gatecount" -> ()
  | f ->
      Errors.invalidf
        "--stream -O supports the gatecount format only, not %S (gate lines \
         stream before the report header could be known)" f);
  let circ : Wire.bit array Circ.t =
    match which with
    | "orthodox" -> Algo_bwt.whole ~p (Algo_bwt.orthodox_oracle p)
    | "template" -> Algo_bwt.whole ~p (Algo_bwt.template_oracle p)
    | "qcl" -> Qcl_baseline.Bwt_qcl.whole ~p
    | s -> Errors.invalidf "unknown oracle %S (try orthodox, template, qcl)" s
  in
  let st = Stream_opt.stats_create () in
  let sink =
    Sink.tee (Sink.summary_depth ()) (Stream_opt.sink ~stats:st (Sink.summary_depth ()))
  in
  let ((before, depth_before), (after, depth_after)), _ =
    Circ.run_streaming_unit circ sink
  in
  Fmt.pr "Before optimisation:@\n%a@\n" Gatecount.pp_summary before;
  if verbose then Fmt.pr "%a@." Stream_opt.pp_stats st;
  Fmt.pr "After optimisation:@\n%a@\n" Gatecount.pp_summary after;
  Fmt.pr "Optimizer: removed %d of %d logical gates; depth %d -> %d@."
    (before.Gatecount.total_logical - after.Gatecount.total_logical)
    before.Gatecount.total_logical depth_before depth_after;
  Fmt.pr "%a@." Gatecount.pp_summary after;
  0

(* Symbolic estimation: derive the resource vector of ONE walk timestep
   (streamed once), multiply it by [s], and seal it between the
   entrance-preparation prologue and the measurement epilogue. The
   timestep count never enters a loop, so s = 10^12 costs the same as
   s = 1 — and at small s the result is bit-identical to the streamed
   exact gatecount (asserted in test/ and in CI). *)
let run_estimate which p base =
  let module Estimate = Quipper_estimate.Estimate in
  let module Qureg = Quipper_arith.Qureg in
  let m = Algo_bwt.label_width p in
  let oracle =
    match which with
    | "orthodox" -> Algo_bwt.orthodox_oracle p
    | "template" -> Algo_bwt.template_oracle p
    | "qcl" ->
        Errors.invalidf
          "--estimate needs the step-decomposed oracles (orthodox, template)"
    | s -> Errors.invalidf "unknown oracle %S (try orthodox, template)" s
  in
  let prologue =
    Estimate.of_circ_unit (Qureg.init ~width:m Algo_bwt.entrance)
  in
  let step =
    Estimate.of_circ ~in_:(Qureg.shape m) (fun a ->
        Circ.(
          let* () = Algo_bwt.walk_step ~p oracle a in
          return a))
  in
  let epilogue =
    Estimate.of_circ ~in_:(Qureg.shape m) (fun a ->
        Circ.measure (Qureg.shape m) a)
  in
  let est =
    Estimate.seq prologue (Estimate.seq (Estimate.repeat p.Algo_bwt.s step) epilogue)
  in
  let est = match base with None -> est | Some b -> Estimate.in_base b est in
  (match base with
  | Some b -> Fmt.pr "Gate base: %s@." (Decompose.base_name b)
  | None -> ());
  Fmt.pr "%a" Estimate.pp_summary est;
  0

(* Fused-simulation check: run the whole algorithm (oracle walk and
   final measurement) through the gate-fusion engine and through the
   plain statevector engine, streaming in both cases, at the same seed —
   the measured node must come out bit-identical. [-n 2] keeps the
   orthodox oracle inside the statevector qubit cap. *)
let run_fuse which p seed =
  let module Sim = Quipper_sim.Statevector in
  let module Fuse = Quipper_sim.Fuse in
  (* the Circ.t closes over per-generation state, so each engine gets a
     freshly built computation *)
  let circ () : Wire.bit array Circ.t =
    match which with
    | "orthodox" -> Algo_bwt.whole ~p (Algo_bwt.orthodox_oracle p)
    | "template" -> Algo_bwt.whole ~p (Algo_bwt.template_oracle p)
    | "qcl" -> Qcl_baseline.Bwt_qcl.whole ~p
    | s -> Errors.invalidf "unknown oracle %S (try orthodox, template, qcl)" s
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let plain, t_plain =
    time (fun () ->
        let st = Sim.create ~seed () in
        let sink =
          Sink.unbox
            (Sink.make ~on_gate:(Sim.apply_gate st) ~finish:(fun _ -> ()) ())
        in
        let (), bits = Circ.run_streaming_unit (circ ()) sink in
        Array.map (fun w -> Sim.read_bit st (Wire.bit_wire w)) bits)
  in
  let st = Fuse.create ~seed () in
  let fused, t_fused =
    time (fun () ->
        let sink =
          Sink.make ~on_gate:(Fuse.apply_gate st)
            ~on_subroutine_exit:(fun name sub -> Fuse.define st name sub)
            ~finish:(fun _ -> ())
            ()
        in
        let (), bits = Circ.run_streaming_unit (circ ()) sink in
        Array.map (fun w -> Fuse.read_bit st (Wire.bit_wire w)) bits)
  in
  let pp_bits ppf bits =
    Array.iter (fun b -> Fmt.pf ppf "%d" (if b then 1 else 0)) bits
  in
  Fmt.pr "Unfused: measured %a in %.3fs@." pp_bits plain t_plain;
  Fmt.pr "Fused:   measured %a in %.3fs@." pp_bits fused t_fused;
  Fmt.pr "Fusion:  %a@." Fuse.pp_stats (Fuse.stats st);
  if plain = fused then begin
    Fmt.pr "Fusion check: PASS@.";
    0
  end
  else begin
    Fmt.pr "Fusion check: FAIL@.";
    1
  end

let run which format n s optimize verbose stream fuse estimate estimate_base
    seed domains =
  Quipper_cli.guard "bwt" @@ fun () ->
  Quipper_cli.check Quipper_cli.bwt_n n;
  Quipper_cli.check Quipper_cli.timesteps s;
  Quipper_cli.check Quipper_cli.domains domains;
  Quipper_cli.set_domains domains;
  let p = { Algo_bwt.n; s; dt = Algo_bwt.default_params.Algo_bwt.dt } in
  if estimate then begin
    if optimize || stream || fuse then
      Errors.invalidf "--estimate is incompatible with -O, --stream and --fuse";
    if format <> "gatecount" then
      Errors.invalidf "--estimate supports the gatecount format only";
    run_estimate which p estimate_base
  end
  else if estimate_base <> None then
    Errors.invalidf "--estimate-base needs --estimate"
  else if fuse then begin
    if optimize || stream then
      Errors.invalidf "--fuse runs its own streaming comparison; drop -O/--stream";
    run_fuse which p seed
  end
  else if stream then begin
    if optimize then run_stream_opt which format p verbose
    else run_stream which format p
  end
  else begin
  let b =
    match which with
    | "orthodox" -> Algo_bwt.generate ~p ~which:`Orthodox ()
    | "template" -> Algo_bwt.generate ~p ~which:`Template ()
    | "qcl" -> Qcl_baseline.Bwt_qcl.generate ~p ()
    | s -> Errors.invalidf "unknown oracle %S (try orthodox, template, qcl)" s
  in
  let b =
    if optimize then Quipper_opt.Passes.optimize_and_report ~verbose Fmt.stdout b
    else b
  in
  (match format with
  | "gatecount" -> Fmt.pr "%a@." Gatecount.pp_summary (Gatecount.summarize b)
  | "text" -> Printer.print b
  | "ascii" -> Ascii.print ~max_columns:400 b
  | f -> Errors.invalidf "unknown format %S" f);
  0
  end

let which =
  Arg.(
    value & opt string "orthodox"
    & info [ "o"; "oracle" ] ~docv:"WHICH"
        ~doc:"Implementation: orthodox, template, or qcl (the baseline generator).")

let format =
  Arg.(
    value & opt string "gatecount"
    & info [ "f"; "format" ] ~docv:"FORMAT" ~doc:"gatecount, text or ascii.")

let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Tree depth parameter.")
let s_arg = Arg.(value & opt int 1 & info [ "s" ] ~docv:"S" ~doc:"Number of timesteps.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "O"; "optimize" ]
        ~doc:"Run the peephole optimizer before output, \
              printing before/after gate-count summaries.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ] ~doc:"With $(b,-O), also print the optimizer's statistics.")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"Stream gates to the consumer instead of materializing the \
              circuit: O(1) memory per gate, same output byte for byte \
              (formats: gatecount, text). With $(b,-O), optimize the \
              stream through the windowed peephole transformer \
              (gatecount only).")

let fuse_arg =
  Arg.(
    value & flag
    & info [ "fuse" ]
        ~doc:"Simulate the whole algorithm through the gate-fusion engine \
              and through the plain statevector engine at the same seed, \
              and check the measured outputs agree (use a small $(b,-n): \
              the statevector caps at 25 qubits).")

let cmd =
  let doc = "The Binary Welded Tree algorithm (Quipper paper, section 6 comparison)." in
  Cmd.v (Cmd.info "bwt" ~doc)
    Term.(
      const run $ which $ format $ n_arg $ s_arg $ optimize_arg $ verbose_arg
      $ stream_arg $ fuse_arg $ Quipper_cli.estimate_arg
      $ Quipper_cli.estimate_base_arg $ Quipper_cli.seed_arg
      $ Quipper_cli.domains_arg)

let () = exit (Cmd.eval' cmd)
