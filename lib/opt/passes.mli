(** The materialized optimizer: {!Stream_opt}'s rules run to a fixpoint
    over a whole in-memory circuit, with per-round statistics and the
    command-line [-O] report.

    Each round is one {!Stream_opt.optimize_b} stage whose window covers
    the whole circuit, box bodies included; rounds repeat until one
    leaves the circuit unchanged. *)

open Quipper

type stat = {
  round : int;  (** fixpoint round, starting at 1 *)
  gates_before : int;  (** {!Quipper.Gatecount.total_logical} before *)
  gates_after : int;
  depth_before : int;
  depth_after : int;
  seconds : float;  (** wall time of this round's rewrite *)
  rules : Stream_opt.stats;  (** this round's per-rule counters *)
}

val optimize : Circuit.b -> Circuit.b * stat list
(** Run the rules hierarchically to a fixpoint. Statistics come back one
    entry per round, in order; the last round is the one that changed
    nothing. *)

val pp_stats : Format.formatter -> stat list -> unit
(** A table of per-round statistics: gates and depth before/after, gates
    removed, wall time, then the round's per-rule counters. *)

val optimize_and_report : ?verbose:bool -> Format.formatter -> Circuit.b -> Circuit.b
(** The command-line [-O] entry point: run {!optimize}, print
    before/after {!Quipper.Gatecount.pp_summary} blocks (with the
    {!pp_stats} table in between when [verbose]) and a one-line
    ["Optimizer: removed N of M logical gates; depth a -> b"] summary,
    and return the optimised circuit. *)
