(** The quantum walk of the Triangle Finding algorithm (paper §5.1–5.3):
    a Grover-based walk on the Hamming graph of 2^r-tuples. Subroutines
    are boxed and named as in the paper (a5, a6_QWSH, a7_DIFFUSE,
    a12_FetchStoreE, a13_UPDATE, a14_SWAP); walk steps are grouped into
    boxed segments so that the materialised circuit stays small at any
    iteration count — the paper's hierarchical-circuit story (§4.4.4).
    Iteration-count model: see DESIGN.md.

    As in {!Oracle}, a boxed step builds the register file's witness when
    applied to [~p] ([a4_GCQWStep ~p]), once for all its calls. *)

open Quipper
module Qureg = Quipper_arith.Qureg

type params = Oracle.params = { l : int; n : int; r : int }

val default_params : params

type registers = {
  tt : Qureg.t array;  (** the tuple: 2^r node registers of n qubits *)
  i : Qureg.t;  (** r-qubit index *)
  v : Qureg.t;  (** n-qubit node *)
  ee : Wire.qubit array;  (** cached edge bits, one per pair (j, k), k < j *)
}

val tuple_size : params -> int
val ee_size : params -> int
val ee_index : int -> int -> int
val regs_shape :
  params ->
  ( int list * int * int * bool list,
    registers,
    Wire.bit array list * Wire.bit array * Wire.bit array * Wire.bit list )
  Qdata.t

val qram_fetch : p:params -> Qureg.t -> Qureg.t array -> Qureg.t -> unit Circ.t
(** ttd ^= tt[i]: one quantum-test-controlled copy per address. *)

val qram_store : p:params -> Qureg.t -> Qureg.t array -> Qureg.t -> unit Circ.t

val a7_DIFFUSE : Qureg.t -> Qureg.t -> unit Circ.t
val a12_FetchStoreE : p:params -> Qureg.t -> Wire.qubit array -> Wire.qubit array -> unit Circ.t
val a13_UPDATE : p:params -> Qureg.t array -> Qureg.t -> Wire.qubit array -> unit Circ.t
(** Recompute the scratch edge column: 2^r oracle calls — the dominant
    cost of a walk step. *)

val a14_SWAP : Qureg.t -> Qureg.t -> unit Circ.t

val a6_QWSH : p:params -> registers -> registers Circ.t
(** One walk step: §5.3.2's code, verbatim structure — diffusion, then a
    [with_computed_fun] qRAM sandwich around the a14 swap. *)

val a5_TestTriangleEdges : p:params -> registers -> registers Circ.t

val r1_iterations : params -> int
val segment : int
val r2_iterations : params -> int
val walk_segment : p:params -> registers -> registers Circ.t
val a4_GCQWStep : p:params -> registers -> registers Circ.t
val a2_FetchE : p:params -> registers -> unit Circ.t

val a1_prologue : p:params -> registers Circ.t
(** Initialise, superpose, populate the edge table — everything before
    the amplitude-amplification loop. *)

val a1_epilogue :
  p:params -> registers -> (Wire.bit array list * Wire.bit array) Circ.t
(** Measure the tuple and edge table, discard the rest. *)

val a1_QWTFP : p:params -> (Wire.bit array list * Wire.bit array) Circ.t
(** The whole algorithm: initialise, superpose, populate the edge table,
    amplitude-amplify, measure — [a1_prologue]; [a4_GCQWStep]^R1;
    [a1_epilogue], the decomposition symbolic resource estimation
    multiplies through. *)

val generate : ?p:params -> unit -> Circuit.b
val generate_oracle : ?p:params -> unit -> Circuit.b
val generate_pow17 : ?p:params -> unit -> Circuit.b
val generate_mul : ?p:params -> unit -> Circuit.b
val generate_qwsh : ?p:params -> unit -> Circuit.b
