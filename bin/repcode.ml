(* The [repcode] command line: repetition-code quantum memory under
   circuit-level depolarizing noise — logical-error rate vs physical
   error rate, at million-trial scale, over the Pauli-frame engine
   (with --engine slow as the cross-check path). *)

open Cmdliner
module Noise = Quipper_sim.Noise
module R = Algo_repcode

(* a comma-separated list of the flag's numbers *)
let parse_list of_string what flag s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
         match of_string x with
         | Some v -> v
         | None -> Quipper.Errors.invalidf "%s takes %s, got %S" flag what x)

let parse_floats = parse_list float_of_string_opt "numbers"
let parse_ints = parse_list int_of_string_opt "integers"

(* Frame-vs-slow validation: sample a modest campaign through both
   engines at the same master seed and insist every trial's outcome is
   bit-identical — the acceptance property of the frame engine, checked
   right here on the workload we are about to scale up. *)
let validate_point ~p ~physical ~trials ~seed =
  let collect engine =
    let b = R.generate ~p () in
    let cfg = { Noise.none with depolarizing = physical } in
    let out = Array.make trials None in
    let summary =
      Noise.sample_trials_on
        (module Quipper_sim.Backend.Clifford)
        ~master_seed:seed ~engine ~trials cfg b []
        ~f:(fun t s -> out.(t) <- Some s)
    in
    (out, summary)
  in
  let fast, fs = collect `Frame in
  let slow, _ = collect `Slow in
  let mismatches = ref 0 in
  Array.iteri (fun t a -> if a <> slow.(t) then incr mismatches) fast;
  if !mismatches > 0 then
    Fmt.failwith "VALIDATION FAILED: d=%d p=%g: %d/%d trials differ frame vs slow"
      p.R.distance physical !mismatches trials;
  Fmt.pr
    "validated d=%d r=%d p=%g: %d trials bit-identical frame vs slow (%d frame, %d fallback)@."
    p.R.distance p.R.rounds physical trials fs.Noise.frame_sampled
    fs.Noise.slow_sampled

let run distances rounds physicals trials engine seed validate domains =
  Quipper_cli.guard "repcode" @@ fun () ->
  let distances = parse_ints "-d" distances in
  let physicals = parse_floats "-p" physicals in
  List.iter
    (fun d ->
      Quipper_cli.check Quipper_cli.distance d;
      Quipper_cli.check_odd "-d" d)
    distances;
  List.iter (Quipper_cli.check_prob "-p") physicals;
  Quipper_cli.check Quipper_cli.rounds rounds;
  Quipper_cli.check Quipper_cli.trials trials;
  Quipper_cli.check Quipper_cli.domains domains;
  Quipper_cli.set_domains domains;
  List.iter
    (fun d ->
      let p = { R.distance = d; rounds = (if rounds > 0 then rounds else d) } in
      if validate then
        List.iter
          (fun ph ->
            validate_point ~p ~physical:ph ~trials:(min trials 2000) ~seed)
          physicals;
      List.iter
        (fun ph ->
          let pt =
            R.run_point ~master_seed:seed ~engine ~p ~physical:ph ~trials ()
          in
          Fmt.pr "%a@." R.pp_point pt)
        physicals)
    distances;
  0

let distances_arg =
  Arg.(
    value & opt string "3,5,7,9"
    & info [ "d"; "distances" ] ~docv:"D,D,..."
        ~doc:"Comma-separated code distances (odd).")

let rounds_arg =
  Arg.(
    value & opt int 0
    & info [ "r"; "rounds" ] ~docv:"R"
        ~doc:"Syndrome-extraction rounds per trial (0 = one round per unit \
              of distance, the usual choice).")

let physicals_arg =
  Arg.(
    value & opt string "0.001,0.003,0.01,0.03"
    & info [ "p"; "physical" ] ~docv:"P,P,..."
        ~doc:"Comma-separated physical (depolarizing) error rates.")

let trials_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "t"; "trials" ] ~docv:"N" ~doc:"Trials per (distance, rate) point.")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"Before each sweep, check a small campaign is bit-identical \
              between the frame engine and the slow path.")

let cmd =
  let doc =
    "Repetition-code memory experiment: logical-error rate vs physical noise \
     over the Pauli-frame engine."
  in
  Cmd.v (Cmd.info "repcode" ~doc)
    Term.(
      const run $ distances_arg $ rounds_arg $ physicals_arg $ trials_arg
      $ Quipper_cli.engine_arg $ Quipper_cli.seed_arg $ validate_arg
      $ Quipper_cli.domains_arg)

let () = exit (Cmd.eval' cmd)
