(** The Triangle Finding oracle (paper §5.1, §5.3.1): the graph's edge
    predicate, defined by modular arithmetic over l-bit QIntTF integers —
    edge(u, w) iff the top bit of (u'^17 ⊞ w'^17) is set (see DESIGN.md
    for the substitution note on the exact predicate). Subroutine naming
    follows the paper: each of these is a boxed subcircuit whose inverse
    appears as the starred boxes of Figures 2 and 3.

    A boxed generator builds its shape witnesses when it is applied to
    its parameter ([o8_MUL ~l]), not at each call, so code that calls one
    many times applies it once and calls the result. *)

open Quipper
module Qureg = Quipper_arith.Qureg

type params = { l : int; n : int; r : int }
(** l: oracle integer width; the graph has 2^n nodes; Hamming tuples have
    size 2^r. *)

val default_params : params

val o7_ADD :
  l:int ->
  Wire.qubit * Qureg.t * Qureg.t ->
  (Wire.qubit * Qureg.t * Qureg.t * Qureg.t) Circ.t
(** Boxed fresh s := y ⊞ (ctl ? x : 0) — o7_ADD_controlled of Figure 3. *)

val o8_MUL : l:int -> Qureg.t * Qureg.t -> (Qureg.t * Qureg.t * Qureg.t) Circ.t
(** Boxed fresh p := x*y mod 2^l - 1 — the shift-add / double_TF ladder of
    Figure 3, intermediate sums uncomputed in the mirrored half. *)

val square_boxed : l:int -> Qureg.t -> Qureg.t Circ.t

val o4_POW17 : l:int -> Qureg.t -> (Qureg.t * Qureg.t) Circ.t
(** Boxed (x, x^17): four squarings, one multiplication, squarings
    uncomputed — Figure 2 verbatim, comments included. *)

val inject : l:int -> Qureg.t -> Qureg.t Circ.t
(** Widen an n-bit node register into a fresh l-bit QIntTF register. *)

val o1_ORACLE :
  p:params ->
  Qureg.t * Qureg.t * Wire.qubit ->
  (Qureg.t * Qureg.t * Wire.qubit) Circ.t
(** Boxed out ^= edge(u, w) on n-bit node registers; two POW17s, an add,
    a bit test, everything uncomputed. *)

val edge_sem : p:params -> int -> int -> bool
(** Bit-exact classical reference of the edge predicate. *)
