(* The [tf] command line, mirroring the paper's §5.2/§5.4 usage:

     ./tf -f gatecount -o orthodox -l 31 -n 15 -r 6
     ./tf -s pow17 -l 4 -n 3 -r 2
     ./tf -f gatecount --oracle-only -l 31 -n 15 -r 9

   "Its command line interface allows the user, for example, to plug in
   different oracles, show different parts of the circuit, select a gate
   base, select different output formats, and select parameter values for
   l, n and r."

   The paper's [-O] (oracle only) is spelled [--oracle-only] here; [-O]
   runs the peephole optimizer instead. *)

open Cmdliner
open Quipper

type format = Gatecount | Text | AsciiArt

let generate ~subroutine ~oracle_only ~p =
  ignore oracle_only;
  match subroutine with
  | Some "pow17" -> Algo_tf.Qwtfp.generate_pow17 ~p ()
  | Some "mul" -> Algo_tf.Qwtfp.generate_mul ~p ()
  | Some "qwsh" -> Algo_tf.Qwtfp.generate_qwsh ~p ()
  | Some "oracle" -> Algo_tf.Qwtfp.generate_oracle ~p ()
  | Some s -> Errors.invalidf "unknown subroutine %S (try pow17, mul, qwsh, oracle)" s
  | None ->
      if oracle_only then Algo_tf.Qwtfp.generate_oracle ~p ()
      else Algo_tf.Qwtfp.generate ~p ()

(* The gatecount report of one engine run, as in the paper 5.3.1:
   per-box counts first, then the aggregate and the depth. *)
let print_report ((whole : Resource.t), boxes) =
  let boxes = List.map (fun (name, v) -> (name, Gatecount.summary_of v)) boxes in
  List.iter
    (fun (name, s) ->
      Fmt.pr "Subroutine %S: %d gates, %d qubits@." name s.Gatecount.total
        s.Gatecount.qubits)
    boxes;
  Fmt.pr "%a" Gatecount.pp_summary (Gatecount.summary_of whole);
  Fmt.pr "Depth (upper bound): %d@." (Resource.to_int "the depth" whole.Resource.depth)

(* One streamed generation pass of the selected entry point into [sink],
   with [report] on its result — the streaming modes below differ only
   in the sinks they compose. *)
let with_streamed ~subroutine ~oracle_only ~(p : Algo_tf.Oracle.params)
    (sink : unit -> 'a Sink.t) (report : 'a -> unit) =
  let module Qureg = Quipper_arith.Qureg in
  let go : type b q c r. in_:(b, q, c) Qdata.t -> (q -> r Circ.t) -> unit =
   fun ~in_ f -> report (fst (Circ.run_streaming ~in_ f (sink ())))
  in
  (match subroutine with
  | Some "pow17" ->
      go ~in_:(Qureg.shape p.l) (fun x -> Algo_tf.Oracle.o4_POW17 ~l:p.l x)
  | Some "mul" ->
      go
        ~in_:(Qdata.pair (Qureg.shape p.l) (Qureg.shape p.l))
        (fun xy -> Algo_tf.Oracle.o8_MUL ~l:p.l xy)
  | Some "qwsh" ->
      go ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs -> Algo_tf.Qwtfp.a6_QWSH ~p regs)
  | Some "oracle" ->
      let node = Qureg.shape p.n in
      go
        ~in_:(Qdata.triple node node Qdata.qubit)
        (fun (u, w, e) -> Algo_tf.Oracle.o1_ORACLE ~p (u, w, e))
  | Some s -> Errors.invalidf "unknown subroutine %S (try pow17, mul, qwsh, oracle)" s
  | None ->
      if oracle_only then
        let node = Qureg.shape p.n in
        go
          ~in_:(Qdata.triple node node Qdata.qubit)
          (fun (u, w, e) -> Algo_tf.Oracle.o1_ORACLE ~p (u, w, e))
      else go ~in_:Qdata.unit (fun () -> Algo_tf.Qwtfp.a1_QWTFP ~p));
  0

(* Streaming mode: drive the same entry points through
   [Circ.run_streaming] into one resource walk, which produces the whole
   gatecount report — byte-identical to the materialized path, with O(1)
   memory per gate. *)
let run_stream ~subroutine ~oracle_only ~p =
  with_streamed ~subroutine ~oracle_only ~p Sink.report print_report

(* Streaming optimisation: the windowed peephole transformer between
   generation and the report walk, unoptimized before-counters teed off
   the same pass. Report layout matches materialized [-O] (the
   [Passes.optimize_and_report] block, then the gatecount report of the
   optimized circuit). *)
let run_stream_opt ~subroutine ~oracle_only ~p ~verbose =
  let module Stream_opt = Quipper_opt.Stream_opt in
  let st = Stream_opt.stats_create () in
  let sink () = Sink.tee (Sink.summary_depth ()) (Stream_opt.sink ~stats:st (Sink.report ())) in
  let report ((before, depth_before), ((whole, _) as after_report)) =
    let after = Gatecount.summary_of whole in
    let depth_after = Resource.to_int "the depth" whole.Resource.depth in
    Fmt.pr "Before optimisation:@\n%a@\n" Gatecount.pp_summary before;
    if verbose then Fmt.pr "%a@." Stream_opt.pp_stats st;
    Fmt.pr "After optimisation:@\n%a@\n" Gatecount.pp_summary after;
    Fmt.pr "Optimizer: removed %d of %d logical gates; depth %d -> %d@."
      (before.Gatecount.total_logical - after.Gatecount.total_logical)
      before.Gatecount.total_logical depth_before depth_after;
    print_report after_report
  in
  with_streamed ~subroutine ~oracle_only ~p sink report

(* Symbolic estimation: the whole algorithm is prologue ; a4^R1 ;
   epilogue, so the amplitude-amplification loop collapses to one
   multiplication of the a4 step's resource vector — R1 never enters a
   loop, and Wide accumulators keep totals exact far past native-int
   range. Named subroutines estimate directly from one streamed pass. *)
let run_estimate ~subroutine ~oracle_only ~(p : Algo_tf.Oracle.params) ~base =
  let module Estimate = Quipper_estimate.Estimate in
  let module Qureg = Quipper_arith.Qureg in
  let est =
    match subroutine with
    | Some "pow17" ->
        Estimate.of_circ ~in_:(Qureg.shape p.l) (fun x ->
            Algo_tf.Oracle.o4_POW17 ~l:p.l x)
    | Some "mul" ->
        Estimate.of_circ
          ~in_:(Qdata.pair (Qureg.shape p.l) (Qureg.shape p.l))
          (fun xy -> Algo_tf.Oracle.o8_MUL ~l:p.l xy)
    | Some "qwsh" ->
        Estimate.of_circ ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs ->
            Algo_tf.Qwtfp.a6_QWSH ~p regs)
    | Some "oracle" ->
        let node = Qureg.shape p.n in
        Estimate.of_circ
          ~in_:(Qdata.triple node node Qdata.qubit)
          (fun (u, w, e) -> Algo_tf.Oracle.o1_ORACLE ~p (u, w, e))
    | Some s ->
        Errors.invalidf "unknown subroutine %S (try pow17, mul, qwsh, oracle)" s
    | None ->
        if oracle_only then
          let node = Qureg.shape p.n in
          Estimate.of_circ
            ~in_:(Qdata.triple node node Qdata.qubit)
            (fun (u, w, e) -> Algo_tf.Oracle.o1_ORACLE ~p (u, w, e))
        else
          let prologue =
            Estimate.of_circ_unit (Algo_tf.Qwtfp.a1_prologue ~p)
          in
          let step =
            Estimate.of_circ ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs ->
                Algo_tf.Qwtfp.a4_GCQWStep ~p regs)
          in
          let epilogue =
            Estimate.of_circ ~in_:(Algo_tf.Qwtfp.regs_shape p) (fun regs ->
                Algo_tf.Qwtfp.a1_epilogue ~p regs)
          in
          Estimate.seq prologue
            (Estimate.seq
               (Estimate.repeat (Algo_tf.Qwtfp.r1_iterations p) step)
               epilogue)
  in
  let est = match base with None -> est | Some b -> Estimate.in_base b est in
  (match base with
  | Some b -> Fmt.pr "Gate base: %s@." (Decompose.base_name b)
  | None -> ());
  Fmt.pr "%a" Estimate.pp_summary est;
  0

(* Fused-simulation check: the pow17 arithmetic subcircuit (the paper's
   §5.2 oracle component) run through the gate-fusion engine and the
   plain statevector engine on every computational-basis input, with
   amplitude vectors compared componentwise. pow17 is hierarchical —
   boxed adders called repeatedly — so the run also exercises the
   per-box compilation cache; the printed stats show how many call
   gates were served per compilation. [-l 2] keeps the peak width
   inside the statevector qubit cap. *)
let run_fuse ~(p : Algo_tf.Oracle.params) =
  let module Sv = Quipper_sim.Statevector in
  let module Fuse = Quipper_sim.Fuse in
  let module Cplx = Quipper_math.Cplx in
  let b = Algo_tf.Qwtfp.generate_pow17 ~p () in
  let nin = List.length b.Circuit.main.Circuit.inputs in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let dev = ref 0.0 and t_plain = ref 0.0 and t_fused = ref 0.0 in
  let last_stats = ref None in
  for x = 0 to (1 lsl nin) - 1 do
    let inputs = List.init nin (fun i -> x land (1 lsl i) <> 0) in
    let sv, tp = time (fun () -> Sv.run_circuit ~seed:1 b inputs) in
    let fu, tf = time (fun () -> Fuse.run_circuit ~seed:1 b inputs) in
    t_plain := !t_plain +. tp;
    t_fused := !t_fused +. tf;
    let a = Sv.amplitudes sv and c = Fuse.amplitudes fu in
    Array.iteri
      (fun i x ->
        let e = Cplx.norm (Cplx.sub x c.(i)) in
        if e > !dev then dev := e)
      a;
    last_stats := Some (Fuse.stats fu)
  done;
  Fmt.pr "pow17 l=%d: %d basis inputs@." p.Algo_tf.Oracle.l (1 lsl nin);
  Fmt.pr "Unfused: %.3fs total@." !t_plain;
  Fmt.pr "Fused:   %.3fs total@." !t_fused;
  (match !last_stats with
  | Some s -> Fmt.pr "Fusion:  %a@." Fuse.pp_stats s
  | None -> ());
  Fmt.pr "Max amplitude deviation: %.3g@." !dev;
  if !dev <= 1e-9 then begin
    Fmt.pr "Fusion check: PASS@.";
    0
  end
  else begin
    Fmt.pr "Fusion check: FAIL@.";
    1
  end

let run format subroutine oracle_only gate_base simulate optimize verbose l n r
    stream fuse estimate estimate_base domains =
  Quipper_cli.guard "tf" @@ fun () ->
  Quipper_cli.check Quipper_cli.tf_l l;
  Quipper_cli.check Quipper_cli.tf_n n;
  Quipper_cli.check Quipper_cli.tf_r r;
  Quipper_cli.check Quipper_cli.domains domains;
  Quipper_cli.set_domains domains;
  let p = { Algo_tf.Oracle.l; n; r } in
  if estimate then begin
    if simulate || optimize || stream || fuse || gate_base <> None then
      Errors.invalidf
        "--estimate is incompatible with --simulate, -O, --stream, --fuse \
         and --gate-base (use --estimate-base for a symbolic base change)";
    (match format with
    | Gatecount -> ()
    | _ -> Errors.invalidf "--estimate supports the gatecount format only");
    run_estimate ~subroutine ~oracle_only ~p ~base:estimate_base
  end
  else if estimate_base <> None then
    Errors.invalidf "--estimate-base needs --estimate"
  else if fuse then begin
    if simulate || optimize || stream || gate_base <> None then
      Errors.invalidf
        "--fuse runs its own simulation comparison; drop --simulate, -O, \
         --stream and --gate-base";
    run_fuse ~p
  end
  else if stream then begin
    if simulate || gate_base <> None then
      Errors.invalidf
        "--stream is incompatible with --simulate and --gate-base (they \
         need the materialized circuit)";
    (match format with
    | Gatecount -> ()
    | _ -> Errors.invalidf "--stream supports the gatecount format only");
    if optimize then run_stream_opt ~subroutine ~oracle_only ~p ~verbose
    else run_stream ~subroutine ~oracle_only ~p
  end
  else if simulate then
    if Algo_tf.Simulate.run ~p then 0 else 1
  else begin
  let b = generate ~subroutine ~oracle_only ~p in
  let b =
    match gate_base with
    | Some "binary" -> Decompose.decompose_generic Decompose.Binary b
    | Some "toffoli" -> Decompose.decompose_generic Decompose.Toffoli b
    | Some base -> Errors.invalidf "unknown gate base %S (try binary, toffoli)" base
    | None -> b
  in
  let b =
    if optimize then Quipper_opt.Passes.optimize_and_report ~verbose Fmt.stdout b
    else b
  in
  (match format with
  | Gatecount ->
      print_report (Resource.report b)
  | Text -> Printer.print b
  | AsciiArt -> Ascii.print ~max_columns:400 b);
  0
  end

let format =
  let parse = function
    | "gatecount" -> Ok Gatecount
    | "text" -> Ok Text
    | "ascii" -> Ok AsciiArt
    | s -> Error (`Msg (Fmt.str "unknown format %S" s))
  in
  let print ppf = function
    | Gatecount -> Fmt.string ppf "gatecount"
    | Text -> Fmt.string ppf "text"
    | AsciiArt -> Fmt.string ppf "ascii"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Gatecount
    & info [ "f"; "format" ] ~docv:"FORMAT"
        ~doc:"Output format: gatecount, text or ascii.")

let subroutine =
  Arg.(
    value
    & opt (some string) None
    & info [ "s"; "subroutine" ] ~docv:"NAME"
        ~doc:"Show only the named part of the circuit (pow17, mul, qwsh, oracle).")

let oracle_only =
  Arg.(
    value & flag
    & info [ "oracle-only" ]
        ~doc:"Generate the oracle only (the paper's -O).")

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

let gate_base =
  Arg.(
    value
    & opt (some string) None
    & info [ "g"; "gate-base" ] ~docv:"BASE"
        ~doc:"Decompose into a gate base (binary or toffoli) before output.")

let simulate =
  Arg.(
    value & flag
    & info [ "simulate" ]
        ~doc:"Run the oracle test suite (the paper's Simulate module) instead.")

let l_arg = Arg.(value & opt int 4 & info [ "l" ] ~docv:"L" ~doc:"Oracle integer width.")
let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc:"Graph has 2^N nodes.")
let r_arg = Arg.(value & opt int 2 & info [ "r" ] ~docv:"R" ~doc:"Hamming tuples have size 2^R.")

let stream_arg =
  Arg.(
    value & flag
    & info [ "stream" ]
        ~doc:"Stream gates to the consumers instead of materializing the \
              circuit: O(1) memory per gate, same gatecount output byte \
              for byte.")

let fuse_arg =
  Arg.(
    value & flag
    & info [ "fuse" ]
        ~doc:"Simulate the pow17 subcircuit through the gate-fusion engine \
              and the plain statevector engine on every basis input and \
              check the amplitudes agree (use a small $(b,-l): the \
              statevector caps at 25 qubits).")

let cmd =
  let doc = "The Triangle Finding algorithm, as implemented in the Quipper paper (section 5)." in
  Cmd.v
    (Cmd.info "tf" ~doc)
    Term.(
      const run $ format $ subroutine $ oracle_only $ gate_base $ simulate
      $ optimize_arg $ verbose_arg $ l_arg $ n_arg $ r_arg $ stream_arg
      $ fuse_arg $ Quipper_cli.estimate_arg $ Quipper_cli.estimate_base_arg
      $ Quipper_cli.domains_arg)

let () = exit (Cmd.eval' cmd)
