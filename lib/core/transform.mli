(** Generic circuit transformers (paper §3.4, §4.4.3): rewrite every gate
    of a hierarchical circuit — main and subroutine bodies alike — through
    a replacement rule, preserving the box structure. This is Quipper's
    mechanism for "replacing one elementary gate set by another" (see
    {!Decompose}) and for whole-circuit optimisation. *)

type alloc = Wire.ty -> Wire.t
(** Fresh-wire allocator handed to rules (for decompositions that need
    ancillas); any wire a replacement allocates must be terminated within
    the replacement. *)

type rule = alloc -> Gate.t -> Gate.t list option
(** [None] = keep the gate unchanged (cheaper than [Some [g]]). *)

val apply : rule -> Circuit.b -> Circuit.b

val max_wire : Circuit.b -> int
(** Largest wire id mentioned anywhere (so allocators can avoid
    collisions). *)

val gates_cancel : Gate.t -> Gate.t -> bool
(** Are these adjacent gates mutual inverses on identical wires? Covers
    named gates, rotations, subroutine call/uncall pairs, and
    init/term pairs at the same value. *)

val cancel_inverses : Circuit.b -> Circuit.b
(** The paper's "whole-circuit optimizations" in their simplest useful
    form, applied hierarchically. *)

val inline : Circuit.b -> Circuit.t
(** Alias of {!Circuit.inline}: flattening is itself a transformer. *)
