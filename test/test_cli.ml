(* The CLI's numeric flags: every flag of every command, at 0, -1 and
   one past its cap, gives exactly the text pinned here (or is accepted,
   where [None]). A flag added to [Quipper_cli.int_flags] without a row
   here fails the test. *)

let expected =
  [
    ("bwt", "-n", 0, Some "-n must be between 1 and 31 (labels are 2n bits of one OCaml int), got 0");
    ("bwt", "-n", -1, Some "-n must be between 1 and 31 (labels are 2n bits of one OCaml int), got -1");
    ("bwt", "-n", 32, Some "-n must be between 1 and 31 (labels are 2n bits of one OCaml int), got 32");
    ("bwt", "-s", 0, None);
    ("bwt", "-s", -1, Some "-s must be between 0 and 1000000000 (timesteps; 10^9 of them already stream about 2*10^12 gates), got -1");
    ("bwt", "-s", 1000000001, Some "-s must be between 0 and 1000000000 (timesteps; 10^9 of them already stream about 2*10^12 gates), got 1000000001");
    ("bwt", "--domains", 0, None);
    ("bwt", "--domains", -1, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got -1");
    ("bwt", "--domains", 1025, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got 1025");
    ("tf", "-l", 0, Some "-l must be between 1 and 62 (oracle integers are l-bit values of one OCaml int), got 0");
    ("tf", "-l", -1, Some "-l must be between 1 and 62 (oracle integers are l-bit values of one OCaml int), got -1");
    ("tf", "-l", 63, Some "-l must be between 1 and 62 (oracle integers are l-bit values of one OCaml int), got 63");
    ("tf", "-n", 0, None);
    ("tf", "-n", -1, Some "-n must be between 0 and 62 (the graph's 2^n nodes are indexed by one OCaml int), got -1");
    ("tf", "-n", 63, Some "-n must be between 0 and 62 (the graph's 2^n nodes are indexed by one OCaml int), got 63");
    ("tf", "-r", 0, None);
    ("tf", "-r", -1, Some "-r must be between 0 and 12 (a tuple holds 2^r node registers and generation grows about 7x per step of r), got -1");
    ("tf", "-r", 13, Some "-r must be between 0 and 12 (a tuple holds 2^r node registers and generation grows about 7x per step of r), got 13");
    ("tf", "--domains", 0, None);
    ("tf", "--domains", -1, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got -1");
    ("tf", "--domains", 1025, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got 1025");
    ("repcode", "-d", 0, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got 0");
    ("repcode", "-d", -1, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got -1");
    ("repcode", "-d", 1002, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got 1002");
    ("repcode", "-r", 0, None);
    ("repcode", "-r", -1, Some "-r must be between 0 and 100000 (syndrome rounds, 0 meaning one per unit of distance), got -1");
    ("repcode", "-r", 100001, Some "-r must be between 0 and 100000 (syndrome rounds, 0 meaning one per unit of distance), got 100001");
    ("repcode", "-t", 0, Some "-t must be between 1 and 1000000000 (trials, about a million of them a second), got 0");
    ("repcode", "-t", -1, Some "-t must be between 1 and 1000000000 (trials, about a million of them a second), got -1");
    ("repcode", "-t", 1000000001, Some "-t must be between 1 and 1000000000 (trials, about a million of them a second), got 1000000001");
    ("repcode", "--domains", 0, None);
    ("repcode", "--domains", -1, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got -1");
    ("repcode", "--domains", 1025, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got 1025");
    ("shotd", "-n", 0, None);
    ("shotd", "-n", -1, Some "-n must be between 0 and 23 (labels are n+2 qubits and the statevector holds at most 25), got -1");
    ("shotd", "-n", 24, Some "-n must be between 0 and 23 (labels are n+2 qubits and the statevector holds at most 25), got 24");
    ("shotd", "-s", 0, None);
    ("shotd", "-s", -1, Some "-s must be between 0 and 1000000000 (timesteps; 10^9 of them already stream about 2*10^12 gates), got -1");
    ("shotd", "-s", 1000000001, Some "-s must be between 0 and 1000000000 (timesteps; 10^9 of them already stream about 2*10^12 gates), got 1000000001");
    ("shotd", "-d", 0, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got 0");
    ("shotd", "-d", -1, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got -1");
    ("shotd", "-d", 1002, Some "-d must be between 1 and 1001 (odd code distances; the stabilizer tableau grows as d^2), got 1002");
    ("shotd", "-r", 0, None);
    ("shotd", "-r", -1, Some "-r must be between 0 and 100000 (syndrome rounds, 0 meaning one per unit of distance), got -1");
    ("shotd", "-r", 100001, Some "-r must be between 0 and 100000 (syndrome rounds, 0 meaning one per unit of distance), got 100001");
    ("shotd", "--shots", 0, None);
    ("shotd", "--shots", -1, Some "--shots must be between 0 and 16777216 (each shot keeps an outcome row), got -1");
    ("shotd", "--shots", 16777217, Some "--shots must be between 0 and 16777216 (each shot keeps an outcome row), got 16777217");
    ("shotd", "--requests", 0, None);
    ("shotd", "--requests", -1, Some "--requests must be between 0 and 1000000 (every reply is kept until the batch ends), got -1");
    ("shotd", "--requests", 1000001, Some "--requests must be between 0 and 1000000 (every reply is kept until the batch ends), got 1000001");
    ("shotd", "--clients", 0, None);
    ("shotd", "--clients", -1, Some "--clients must be between 0 and 1024 (request chunks, 0 keeps the domain default), got -1");
    ("shotd", "--clients", 1025, Some "--clients must be between 0 and 1024 (request chunks, 0 keeps the domain default), got 1025");
    ("shotd", "--points", 0, None);
    ("shotd", "--points", -1, Some "--points must be between 0 and 1000000 (every point's reply is kept until the sweep ends), got -1");
    ("shotd", "--points", 1000001, Some "--points must be between 0 and 1000000 (every point's reply is kept until the sweep ends), got 1000001");
    ("shotd", "--repeat", 0, Some "--repeat must be between 1 and 10000 (sweeps served by one service), got 0");
    ("shotd", "--repeat", -1, Some "--repeat must be between 1 and 10000 (sweeps served by one service), got -1");
    ("shotd", "--repeat", 10001, Some "--repeat must be between 1 and 10000 (sweeps served by one service), got 10001");
    ("shotd", "--domains", 0, None);
    ("shotd", "--domains", -1, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got -1");
    ("shotd", "--domains", 1025, Some "--domains must be between 0 and 1024 (parallel chunks, 0 keeps the default; more only adds per-chunk overhead), got 1025");
  ]

let test_int_flags () =
  List.iter
    (fun (prog, bounds) ->
      List.iter
        (fun (b : Quipper_cli.bound) ->
          List.iter
            (fun v ->
              let got =
                match Quipper_cli.check b v with
                | () -> None
                | exception Quipper.Errors.Error r -> Some (Quipper.Errors.to_string r)
              in
              match
                List.find_opt (fun (p, f, v', _) -> p = prog && f = b.flag && v' = v) expected
              with
              | None -> Alcotest.failf "%s %s %d: no pinned row" prog b.flag v
              | Some (_, _, _, want) ->
                  Alcotest.(check (option string)) (Fmt.str "%s %s %d" prog b.flag v) want got)
            [ 0; -1; b.hi + 1 ])
        bounds)
    Quipper_cli.int_flags

let error_text f =
  match f () with
  | () -> None
  | exception Quipper.Errors.Error r -> Some (Quipper.Errors.to_string r)

let test_other_flags () =
  let check name want f = Alcotest.(check (option string)) name want (error_text f) in
  check "-p 2" (Some "-p must be a probability between 0 and 1, got 2") (fun () ->
      Quipper_cli.check_prob "-p" 2.0);
  check "-p nan" (Some "-p must be a probability between 0 and 1, got nan") (fun () ->
      Quipper_cli.check_prob "-p" Float.nan);
  check "-p 0" None (fun () -> Quipper_cli.check_prob "-p" 0.0);
  check "--dt inf" (Some "--dt must be a finite number, got inf") (fun () ->
      Quipper_cli.check_finite "--dt" Float.infinity);
  check "-d 4" (Some "-d must be odd, got 4") (fun () -> Quipper_cli.check_odd "-d" 4)

let test_guard () =
  Alcotest.(check int) "an Errors.Error exits 2" 2
    (Quipper_cli.guard "test" (fun () -> Quipper_cli.check Quipper_cli.trials 0; 0));
  Alcotest.(check int) "a clean run keeps its code" 7 (Quipper_cli.guard "test" (fun () -> 7))

let suite =
  [
    Alcotest.test_case "integer flags at 0, -1 and past the cap" `Quick test_int_flags;
    Alcotest.test_case "probabilities, finite numbers, odd distances" `Quick test_other_flags;
    Alcotest.test_case "guard prints and exits 2" `Quick test_guard;
  ]
