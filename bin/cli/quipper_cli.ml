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
