(** Classical (boolean) simulation of circuits.

    The paper's [run_classical_generic] (§4.4.5): circuits whose gates act
    classically on computational basis states — not/X with any controls,
    swap, initialisations, assertive terminations, measurements, classical
    logic gates — can be simulated in linear time by tracking one boolean
    per wire. This is "especially useful in testing oracles", and that is
    exactly what our test suite uses it for: every arithmetic and oracle
    circuit is validated against its classical specification on many
    inputs.

    Two interfaces are provided: [run_fun] executes a circuit-producing
    function directly (gates are evaluated as they are emitted — the
    gate-by-gate QRAM picture, with dynamic lifting available since every
    classical value is known), and [run_circuit] walks an already-generated
    flat circuit. *)

open Quipper

type state = Drive.Cenv.t

let create ?seed:_ () = Drive.Cenv.create "classical"
let read = Drive.Cenv.read
let write = Drive.Cenv.write
let bindings = Drive.Cenv.bindings

(** Execute one gate against the boolean state. Raises on gates with no
    classical action (H, W, rotations, …). *)
let apply_gate st (g : Gate.t) =
  match g with
  | Gate.Gate { name = "not" | "X"; targets = [ t ]; controls; _ } ->
      if List.for_all (Drive.Cenv.sat st) controls then write st t (not (read st t))
  | Gate.Gate { name = "swap"; targets = [ a; b ]; controls; _ } ->
      if List.for_all (Drive.Cenv.sat st) controls then begin
        let va = read st a and vb = read st b in
        write st a vb;
        write st b va
      end
  | g -> Drive.Cenv.apply st g

(* measurement just reads the basis-state value; the wire keeps it as
   its classical value *)
include Drive.Make (struct
  let name = "classical"

  type nonrec state = state

  let create = create
  let apply_gate = apply_gate
  let read_bit = read
  let measure = read
end)

(** Run a classical circuit-producing function as a boolean function: the
    one-liner used all over the oracle tests. *)
let run_oracle ~(in_ : ('b, 'q, 'c) Qdata.t) ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (input : 'b) (f : 'q -> 'q2 Circ.t) : 'b2 =
  let st, r = run_fun ~in_ input f in
  measure_and_read st out r
