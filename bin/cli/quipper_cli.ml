(** The shared command-line surface of the [bin/] executables: one
    spelling (and one default) for [--engine], [--seed] and [--domains]
    everywhere, backed by the same knobs the libraries use
    ({!Quipper_sim.Engine.default}, {!Quipper_sim.Kernel.num_domains}) —
    so the CLI, the environment variables and the library defaults can
    never disagree. *)

open Cmdliner
module Engine = Quipper_sim.Engine
module Kernel = Quipper_sim.Kernel
module Decompose = Quipper.Decompose

let engine_conv =
  let parse s = Result.map_error (fun m -> `Msg m) (Engine.of_string s) in
  Arg.conv (parse, Engine.pp)

let engine_arg =
  Arg.(
    value
    & opt engine_conv (Engine.default ())
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Campaign engine: $(b,auto) (pick the fastest eligible machinery), \
           $(b,frame) (force Pauli frames), or $(b,slow) (force one full \
           simulation per attempt — the cross-check path). Defaults to \
           $(b,QUIPPER_ENGINE) when that is set. Outcomes are bit-identical \
           whatever the engine; only throughput differs.")

let seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master seed; the whole run replays from this one number.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Parallel chunks for large kernels and batched requests, run on a \
           worker pool capped at the core count (0 = keep \
           the default: $(b,QUIPPER_DOMAINS) when set, else the machine's \
           recommended count). Outcomes never depend on this.")

let set_domains n = if n > 0 then Kernel.num_domains := n

let base_conv =
  let parse = function
    | "toffoli" -> Ok Decompose.Toffoli
    | "binary" -> Ok Decompose.Binary
    | s -> Error (`Msg (Fmt.str "unknown gate base %S (try toffoli, binary)" s))
  in
  Arg.conv (parse, fun ppf b -> Fmt.string ppf (Decompose.base_name b))

let estimate_arg =
  Arg.(
    value & flag
    & info [ "estimate" ]
        ~doc:
          "Symbolic resource estimation: derive a per-block resource vector \
           and combine across loop iterations and subroutine calls instead of \
           enumerating gates. Arbitrary-precision totals, so parameters can \
           go orders of magnitude past what $(b,--stream) can enumerate; at \
           small parameters the counts are bit-identical to the streamed \
           exact gatecount.")

let estimate_base_arg =
  Arg.(
    value
    & opt (some base_conv) None
    & info [ "estimate-base" ] ~docv:"BASE"
        ~doc:
          "With $(b,--estimate), re-quote the estimate in a target gate base \
           ($(b,toffoli) or $(b,binary)) by applying the decomposition once \
           per gate kind as a counts transfer function.")

(** The most shots one daemon request may ask for: 2{^24}. A reply keeps
    one outcome row per shot, at least three words each (its cell in
    the reply array, a bool array's header, one output), so a reply at
    the cap already holds 384 MiB. Above it, the count is refused with
    an error reply rather than left to end in [Out_of_memory]. *)
let max_shots = 1 lsl 24

(** One request line of the shot daemon, ["SHOTS SEED"], checked before
    anything is submitted or allocated: SHOTS must lie in
    [0 .. max_shots]. Raises [Errors.Error (Invalid _)] otherwise, so
    the daemon replies with that text. *)
let shot_request line =
  let bad () = Quipper.Errors.invalidf "expected \"SHOTS SEED\", got %S" line in
  match String.split_on_char ' ' (String.trim line) with
  | [ shots; seed ] -> (
      match (int_of_string_opt shots, int_of_string_opt seed) with
      | Some shots, Some seed ->
          if shots < 0 || shots > max_shots then
            Quipper.Errors.invalidf
              "SHOTS must be between 0 and %d (each shot keeps an outcome row \
               of at least 24 bytes), got %d"
              max_shots shots;
          (shots, seed)
      | _ -> bad ())
  | _ -> bad ()

(** {1 Numeric flags}

    Every numeric flag of [bwt], [tf], [repcode] and [shotd] has a range
    and a reason, checked here before the command does any work (and
    before {!set_domains} sizes a domain count). A value outside raises
    [Errors.Error (Invalid _)]; {!guard} prints its text and exits 2. *)

type bound = { flag : string; lo : int; hi : int; why : string }

let check (b : bound) v =
  if v < b.lo || v > b.hi then
    Quipper.Errors.invalidf "%s must be between %d and %d (%s), got %d" b.flag b.lo
      b.hi b.why v

(* a probability, or any finite number *)
let check_prob flag v =
  if not (v >= 0.0 && v <= 1.0) then
    Quipper.Errors.invalidf "%s must be a probability between 0 and 1, got %g" flag v

let check_finite flag v =
  if not (Float.is_finite v) then
    Quipper.Errors.invalidf "%s must be a finite number, got %g" flag v

let check_odd flag v =
  if v mod 2 = 0 then Quipper.Errors.invalidf "%s must be odd, got %d" flag v

let domains =
  { flag = "--domains"; lo = 0; hi = 1024;
    why = "parallel chunks, 0 keeps the default; more only adds per-chunk overhead" }

let bwt_n = { flag = "-n"; lo = 1; hi = 31; why = "labels are 2n bits of one OCaml int" }

let timesteps =
  { flag = "-s"; lo = 0; hi = 1_000_000_000;
    why = "timesteps; 10^9 of them already stream about 2*10^12 gates" }

let tf_l =
  { flag = "-l"; lo = 1; hi = 62; why = "oracle integers are l-bit values of one OCaml int" }

let tf_n =
  { flag = "-n"; lo = 0; hi = 62; why = "the graph's 2^n nodes are indexed by one OCaml int" }

let tf_r =
  { flag = "-r"; lo = 0; hi = 12;
    why = "a tuple holds 2^r node registers and generation grows about 7x per step of r" }

let distance =
  { flag = "-d"; lo = 1; hi = 1001; why = "odd code distances; the stabilizer tableau grows as d^2" }

let rounds =
  { flag = "-r"; lo = 0; hi = 100_000; why = "syndrome rounds, 0 meaning one per unit of distance" }

let trials =
  { flag = "-t"; lo = 1; hi = 1_000_000_000; why = "trials, about a million of them a second" }

let shotd_n =
  { flag = "-n"; lo = 0; hi = 23; why = "labels are n+2 qubits and the statevector holds at most 25" }

let shots = { flag = "--shots"; lo = 0; hi = max_shots; why = "each shot keeps an outcome row" }

let requests =
  { flag = "--requests"; lo = 0; hi = 1_000_000; why = "every reply is kept until the batch ends" }

let clients =
  { domains with flag = "--clients"; why = "request chunks, 0 keeps the domain default" }

let points =
  { flag = "--points"; lo = 0; hi = 1_000_000; why = "every point's reply is kept until the sweep ends" }

let repeat = { flag = "--repeat"; lo = 1; hi = 10_000; why = "sweeps served by one service" }

(** Each command's integer flags, for the table-driven test. *)
let int_flags =
  [
    ("bwt", [ bwt_n; timesteps; domains ]);
    ("tf", [ tf_l; tf_n; tf_r; domains ]);
    ("repcode", [ distance; rounds; trials; domains ]);
    ("shotd", [ shotd_n; timesteps; distance; rounds; shots; requests; clients; points; repeat; domains ]);
  ]

(** Run a command's body; an [Errors.Error] it raises is printed as
    ["NAME: text"] on stderr, with exit code 2. *)
let guard name (f : unit -> int) =
  match f () with
  | code -> code
  | exception Quipper.Errors.Error r ->
      Fmt.epr "%s: %s@." name (Quipper.Errors.to_string r);
      2
