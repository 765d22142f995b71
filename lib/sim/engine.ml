(** The unified engine-selection knob for fault campaigns.

    {!Noise} and {!Inject} historically each declared their own
    [[ `Auto | `Frame | `Slow ]] and every [bin/] command parsed its
    own spelling of it, with defaults that could drift apart. This
    module is now the single definition: the campaign modules alias
    their [engine] types to {!t} (kept one release for compatibility),
    and every entry point defaults to {!default}, which reads the
    [QUIPPER_ENGINE] environment variable the same way everywhere —
    through {!Kernel.env}, like [QUIPPER_DOMAINS]. *)

type t = [ `Auto | `Frame | `Slow ]

let to_string = function `Auto -> "auto" | `Frame -> "frame" | `Slow -> "slow"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "auto" -> Ok `Auto
  | "frame" -> Ok `Frame
  | "slow" -> Ok `Slow
  | _ -> Error (Fmt.str "unknown engine %S (expected auto, frame or slow)" s)

let default () =
  match Kernel.env "QUIPPER_ENGINE" of_string with Some e -> e | None -> `Auto

let pp ppf e = Fmt.string ppf (to_string e)
