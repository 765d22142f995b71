(** The materialized optimizer: {!Stream_opt}'s rules run to a fixpoint
    over a whole in-memory circuit, with statistics and the
    command-line [-O] report.

    It is one {!Stream_opt.optimize_b} stage whose window covers the
    whole circuit, box bodies included. One stage reaches the fixpoint:
    a second over its output would change nothing. *)

open Quipper

type stat = {
  round : int;  (** stage number: always 1, as there is one stage *)
  gates_before : int;  (** {!Quipper.Gatecount.total_logical} before *)
  gates_after : int;
  depth_before : int;
  depth_after : int;
  seconds : float;  (** wall time of this round's rewrite *)
  rules : Stream_opt.stats;  (** this round's per-rule counters *)
}

val optimize : Circuit.b -> Circuit.b * stat list
(** Run the rules hierarchically to a fixpoint. The statistics list
    holds the one stage's entry. *)

val pp_stats : Format.formatter -> stat list -> unit
(** A table of per-stage statistics: gates and depth before/after, gates
    removed, wall time, then the stage's per-rule counters. *)

val optimize_and_report : ?verbose:bool -> Format.formatter -> Circuit.b -> Circuit.b
(** The command-line [-O] entry point: run {!optimize}, print
    before/after {!Quipper.Gatecount.pp_summary} blocks (with the
    {!pp_stats} table in between when [verbose]) and a one-line
    ["Optimizer: removed N of M logical gates; depth a -> b"] summary,
    and return the optimised circuit. *)
