(** One driver for every simulator: the paper's run functions (§4.4.5)
    share their shape — build a state, load the inputs, feed it gates,
    measure or read the outputs — and the semantics of classical wires.
    Both are written here once; a backend supplies only its quantum
    gates and its measurement. *)

open Quipper

(** The classical-wire environment: one boolean per live classical wire.
    Its errors name the backend it was created for. *)
module Cenv : sig
  type t

  val create : string -> t
  (** An empty environment for the backend of this name. *)

  val copy : t -> t
  val read : t -> Wire.t -> bool
  (** Raises [Simulation _] if the wire holds no value. *)

  val write : t -> Wire.t -> bool -> unit

  val bindings : t -> (Wire.t * bool) list
  (** Every value, sorted by wire. *)

  val sat : t -> Gate.control -> bool
  (** Whether a classical control is satisfied. *)

  val apply : t -> Gate.t -> unit
  (** The classical semantics of a gate: [Init]/[Term]/[Discard] write,
      check and forget the wire's value, [Cgate] evaluates through
      {!Quipper.Gate.eval_cgate}, [Phase]/[Measure]/[Comment] do
      nothing, and the rest raise [Simulation _]. The quantum backends
      match their own gates first and fall through to this one; only
      the classical backend, which keeps every wire here, sends it gates
      on [Q] wires. *)
end

val load : string -> (Gate.t -> unit) -> Wire.endpoint list -> bool list -> unit
(** [load name apply es inputs] initialises each input wire to its basis
    value by an [Init] through [apply]; raises [Shape_mismatch] naming
    the backend when the counts differ. *)

val readout :
  measure:(Wire.t -> bool) ->
  read_bit:(Wire.t -> bool) ->
  Wire.endpoint list ->
  bool list
(** Measure each [Q] endpoint and read each [C] endpoint, in order. *)

(** What a backend supplies to be driven. *)
module type ENGINE = sig
  val name : string

  type state

  val create : ?seed:int -> unit -> state
  val apply_gate : state -> Gate.t -> unit
  val read_bit : state -> Wire.t -> bool
  val measure : state -> Wire.t -> bool
end

(** The run functions of one backend, with its loading and readout. *)
module Make (E : ENGINE) : sig
  val load : E.state -> Wire.endpoint list -> bool list -> unit
  val readout : E.state -> Wire.endpoint list -> bool list

  val measure_and_read : E.state -> ('b, 'q, 'c) Qdata.t -> 'q -> 'b
  (** Measure every qubit leaf, read every bit leaf. *)

  val run_fun :
    ?seed:int -> in_:('b, 'q, 'c) Qdata.t -> 'b -> ('q -> 'r Circ.t) -> E.state * 'r
  (** Execute a circuit-producing function gate by gate as it streams
      out of {!Quipper.Circ.run_streaming} — Knill's QRAM model (§2.1)
      with dynamic lifting (§4.3.1) — keeping no gate once applied. *)

  val run_circuit : ?seed:int -> Circuit.b -> bool list -> E.state
  (** Inline a generated circuit and run it on basis-state inputs. *)
end
