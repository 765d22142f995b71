(** The unified engine-selection knob for fault campaigns.

    One definition of the [`Auto]/[`Frame]/[`Slow] choice shared by
    {!Noise}, {!Inject} and every [bin/] command. {!Frame.campaign}
    holds the one rule: [`Auto] and [`Frame] run the Pauli-frame engine
    unless the backend observes classical bits only (a refused
    [`Frame] notes why), falling back per lane to one full simulation
    per attempt where the circuit is out of its reach; [`Slow] always
    simulates. Outcomes are bit-identical across engines at equal seeds
    — only throughput differs. *)

type t = [ `Auto | `Frame | `Slow ]

val to_string : t -> string
(** ["auto"], ["frame"] or ["slow"] — the one canonical spelling per
    engine, as accepted by {!of_string} and the [bin/] CLIs. *)

val of_string : string -> (t, string) result
(** Parse an engine name (case-insensitive): exactly the canonical
    spellings of {!to_string}; anything else is an [Error]. *)

val default : unit -> t
(** The default engine every campaign entry point uses: [`Auto], unless
    the environment variable [QUIPPER_ENGINE] is set — the engine
    analogue of [QUIPPER_DOMAINS] ({!Kernel}), so benchmarks and CI pin
    the choice without code edits. A value {!of_string} rejects raises
    [Quipper.Errors.Error (Invalid _)] naming the variable
    ({!Kernel.env}). *)

val pp : Format.formatter -> t -> unit
