(** The engine-selection knob for fault campaigns: the one definition
    of [`Auto]/[`Frame]/[`Slow] that {!Noise}, {!Inject} and every
    [bin/] command share. Every campaign entry point defaults to
    {!default}, which reads [QUIPPER_ENGINE] through {!Kernel.env}, like
    [QUIPPER_DOMAINS]. What an engine does is {!Frame.campaign}'s rule. *)

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
