(** The peephole optimizer: phase-exact rewrite rules run as a
    ['r Sink.t -> 'r Sink.t] transformer.

    The interesting circuits stream (64M+ gates) and never exist as a
    whole [Circuit.t], so the rules run over a window.
    [sink inner] interposes a bounded per-wire look-behind window
    between the gate stream and [inner]: each arriving gate first runs
    classical constant propagation (a control on a wire known to hold
    the control's polarity is dropped; one known to contradict it
    deletes the gate; a swap of two known-equal wires is deleted),
    then tries the NOT-conjugation sandwich on its wire, then walks
    backward over the window — stepping past provable commuters
    ({!Quipper.Gate.commutes}) — looking for an inverse to cancel
    ({!Quipper.Transform.gates_cancel}) or a rotation to fuse
    ({!Quipper.Gate.fusion}). Unmatched gates append; the oldest window
    entry retires to [inner] when the window holds more live gates than
    its size (the same pending-block discipline [Fuse]'s scheduler
    uses), and the window flushes at [finish]. Memory is O(window),
    independent of circuit size.

    One stage reaches the fixpoint of its rules: a removal schedules the
    gates it may have unblocked for a fresh walk, a fused gate is
    re-examined itself, and a known constant the removed gates had
    destroyed (an [H·H] pair on a known wire) is restored for the gates
    still to arrive.

    Every rule is phase-exact, so box bodies are optimized too: each
    [on_subroutine_exit] definition is rewritten once through a private
    window — memoized on the resolved structural hash of
    {!Quipper.Circuit.Boxdefs}, like [Fuse]'s compiled-program cache —
    and the optimized definition is forwarded
    downstream. Call gates stay in the main window, where call/uncall
    pairs cancel and calls otherwise act as commutation barriers. A
    name redefined with a different body first flushes the window, so
    calls still held in it reach [inner] ahead of the new definition.

    The transformer never reorders surviving gates (rewrites happen in
    place in the window), so composing into {!Quipper.Sink.printer}
    keeps a parseable, deterministic text stream, and composing into
    {!Quipper.Sink.gatecount}/[depth] reports optimized figures. *)

open Quipper

type stats = {
  mutable seen : int;  (** logical gates that entered a window *)
  mutable emitted : int;  (** logical gates that left one *)
  mutable cancelled : int;  (** inverse pairs removed (2 gates each) *)
  mutable fused : int;  (** fusion events (each removes ≥1 gate) *)
  mutable flipped : int;  (** X-sandwiches absorbed (2 gates each) *)
  mutable const_controls : int;  (** provably-satisfied controls dropped *)
  mutable const_deleted : int;  (** gates with contradicted controls deleted *)
  mutable boxes_optimized : int;  (** box bodies rewritten *)
  mutable box_hits : int;  (** box bodies reused from the hash cache *)
  mutable box_replayed : int;
      (** box bodies served by per-angle replay of a skeleton memo *)
}
(** Per-rule counters. Box bodies share the counters of the sink that
    owns them. *)

val stats_create : unit -> stats

val pp_stats : Format.formatter -> stats -> unit
(** One-line summary of the counters. *)

val default_window : int
(** Retirement pressure: how many live gates the look-behind window
    holds before the oldest is forced downstream (256). Gates a rewrite
    removed are no pressure, but a window holds at most four times this
    many entries, live or removed. A very small window (2 or 3) reduces
    less than four stacked stages of it did, since one stage holds only
    that many live gates; from 17 up one stage reduces as much or more. *)


type memo
(** A shareable box-body cache keyed on the {e skeleton} hash
    ({!Quipper.Circuit.hash_skeleton_t} — structure modulo rotation
    angles). Where the per-sink exact-hash cache misses on every point
    of a parameter sweep, this memo recognises the recurring skeleton:
    an angle-{e insensitive} body (no rewrite decision read an angle —
    no rotation cancellation or fusion fired) is optimized once and
    replayed per point by substituting the point's angles at the
    recorded surviving sites; a body where an angle-dependent rewrite
    fired is pinned sensitive and always re-optimizes. Either way the
    output for a given body is independent of cache warmth. The memo is
    a {!Quipper_sim.Memo}: it may be shared across sinks and domains, and
    each skeleton optimizes once however many domains race for it. *)

val memo : unit -> memo
(** A fresh empty shareable skeleton memo. *)

val sink :
  ?rounds:int ->
  ?window:int ->
  ?lookahead:int ->
  ?stats:stats ->
  ?memo:memo ->
  'r Sink.t ->
  'r Sink.t
(** [sink inner] optimizes the event stream into [inner]. [rounds]
    stacks that many window stages, each fed the previous one's output
    (1 by default: a stage already reaches the fixpoint of its rules
    within its window, so over its own output another stage of the same
    window changes nothing; memory is O(rounds * window)); [window] bounds
    how many live gates a stage holds ({!default_window});
    [lookahead] bounds how many live entries a backward walk visits
    (32); pass [stats] to read the per-rule counters after [finish] —
    counters accumulate across all stages and box bodies, so
    [seen]/[emitted] are per-stage sums, not circuit sizes. *)

val entry_commutes : Gate.t -> Gate.t -> bool
(** The window's commutation test on two freshly filled entries (cached
    sorted wire arrays and diagonality): always equal to
    {!Quipper.Gate.commutes}, exposed so tests can check that. *)

val optimize_b :
  ?rounds:int ->
  ?window:int ->
  ?lookahead:int ->
  ?stats:stats ->
  ?memo:memo ->
  Circuit.b ->
  Circuit.b
(** Run a materialized circuit through the streaming optimizer:
    [Sink.drive b (sink (Sink.circuit ()))]. The window covers the
    whole circuit only if [window] exceeds its gate count; with the
    default window this is the streaming result, which a wider window
    may improve on. *)
