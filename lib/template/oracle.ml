(** Reversible oracle synthesis: step 4 of the paper's recipe (§4.6.1).

    [classical_to_reversible f] turns a circuit-generating function
    [f : a -> Circ b] (typically produced with the lifted operators of
    {!Build}) into the reversible (x, y) |-> (x, y XOR f(x)): compute
    [f x] with all its scratch space, CNOT the result into [y], and
    uncompute — every intermediate ancilla is returned to |0> and
    assertively terminated, which the simulators verify. *)

open Quipper
open Circ

(** The paper's
    [classical_to_reversible :: (Datable a, QCData b) => (a -> Circ b) -> (a,b) -> Circ (a,b)].
    [out] is the shape witness of [f]'s result (needed for the generic
    controlled-not). *)
let classical_to_reversible ~(out : ('b2, 'q2, 'c2) Qdata.t)
    (f : 'qa -> 'q2 t) ((x, y) : 'qa * 'q2) : ('qa * 'q2) t =
  let* () =
    with_computed (f x) (fun fx -> controlled_not out ~target:y ~source:fx)
  in
  return (x, y)

(** Phase-oracle form: flip the global phase (Z-style) when [f x] is true —
    the shape needed by Grover-type algorithms. Implemented as
    compute/Z/uncompute. *)
let classical_to_phase (f : 'qa -> Wire.qubit t) (x : 'qa) : 'qa t =
  let* () =
    with_computed (f x) (fun fx ->
        let* _ = gate_Z fx in
        return ())
  in
  return x

(** Compute [f], copy its result into fresh wires, uncompute: an
    out-of-place oracle whose output is freshly allocated (and hence
    independent of the input register). *)
let compute_copy_uncompute ~(out : ('b2, 'q2, 'c2) Qdata.t) (f : 'qa -> 'q2 t)
    (x : 'qa) : 'q2 t =
  with_computed (f x) (fun fx ->
      let* y = qinit out (Qdata.bbuild out (List.map (fun _ -> false) out.Qdata.tys)) in
      let* () = controlled_not out ~target:y ~source:fx in
      return y)
