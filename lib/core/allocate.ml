(** Ancilla-pool wire allocation.

    Paper §4.2.1: "The problem of which particular ancillas to use from a
    'pool' of ancillas is analogous to the classical problem of register
    allocation, and is best left to a late compiler phase that is aware of
    the layout of physical qubits." This module is that late phase, for
    the abstract layout where any freed wire may be reused: it renumbers
    the wires of a circuit so that ids freed by (assertive) terminations
    and discards are handed back out to later initialisations — the lowest
    free id first, deterministically.

    After compaction, a flat circuit's largest wire id + 1 equals its peak
    concurrent width ({!Gatecount.peak_wires}), i.e. the id space {e is}
    the qubit register file. Arities keep their order, so compaction
    preserves circuit semantics positionally (verified by the test
    suite). *)

module Ints = Set.Make (Int)

type pool = {
  mutable map : (Wire.t * Wire.t) list; (* old -> new, assoc *)
  tbl : (Wire.t, Wire.t) Hashtbl.t;
  mutable free : Ints.t;
  mutable next : int;
  mutable peak : int;
}

let new_pool () =
  { map = []; tbl = Hashtbl.create 64; free = Ints.empty; next = 0; peak = 0 }

let lookup p w =
  match Hashtbl.find_opt p.tbl w with
  | Some w' -> w'
  | None -> Errors.raise_ (Dead_wire w)

let allocate p w =
  let w' =
    match Ints.min_elt_opt p.free with
    | Some f ->
        p.free <- Ints.remove f p.free;
        f
    | None ->
        let f = p.next in
        p.next <- p.next + 1;
        if p.next > p.peak then p.peak <- p.next;
        f
  in
  Hashtbl.replace p.tbl w w';
  w'

let release p w =
  let w' = lookup p w in
  Hashtbl.remove p.tbl w;
  p.free <- Ints.add w' p.free

(** Compact one circuit. Requires well-formedness ([Circuit.validate]). *)
let compact_circuit ?(subs : Circuit.subroutine Circuit.Namespace.t = Circuit.Namespace.empty)
    (c : Circuit.t) : Circuit.t =
  let p = new_pool () in
  let inputs =
    List.map
      (fun (e : Wire.endpoint) -> { e with Wire.wire = allocate p e.Wire.wire })
      c.Circuit.inputs
  in
  let rename w = lookup p w in
  let m = Wire.Marks.create () in
  let gates =
    Array.map
      (fun g ->
        match g with
        | Gate.Init i ->
            Gate.Init { i with wire = allocate p i.wire }
        | Gate.Cgate cg ->
            let ins = List.map rename cg.ins in
            Gate.Cgate { cg with ins; out = allocate p cg.out }
        | Gate.Term t ->
            let w' = lookup p t.wire in
            release p t.wire;
            Gate.Term { t with wire = w' }
        | Gate.Discard d ->
            let w' = lookup p d.wire in
            release p d.wire;
            Gate.Discard { d with wire = w' }
        | Gate.Subroutine s ->
            let inputs = List.map rename s.inputs in
            Wire.Marks.call m ~inputs:s.inputs ~outputs:s.outputs;
            (* inputs not among outputs die; outputs not among inputs are
               born at the call *)
            List.iter
              (fun w -> if Wire.Marks.find m w land 2 = 0 then release p w)
              s.inputs;
            let outputs =
              List.map
                (fun w ->
                  if Wire.Marks.find m w land 1 <> 0 then lookup p w else allocate p w)
                s.outputs
            in
            (* account for the callee's internal peak *)
            (match Circuit.Namespace.find_opt s.name subs with
            | Some sub ->
                let extra =
                  Gatecount.peak_wires
                    { Circuit.main = sub.Circuit.circ;
                      subs; sub_order = [] }
                  - List.length s.inputs
                in
                let live = Hashtbl.length p.tbl in
                if live + extra > p.peak then p.peak <- live + extra
            | None -> ());
            Gate.Subroutine { s with inputs; outputs;
                              controls = List.map (Gate.rename_control rename) s.controls }
        | g -> Gate.rename rename g)
      c.Circuit.gates
  in
  let outputs =
    List.map
      (fun (e : Wire.endpoint) -> { e with Wire.wire = rename e.Wire.wire })
      c.Circuit.outputs
  in
  { Circuit.inputs; gates; outputs }

(** Compact a boxed circuit: main and every subroutine body. Call gates
    bind positionally, so renaming a body's internal wires is safe. *)
let compact (b : Circuit.b) : Circuit.b =
  {
    b with
    Circuit.main = compact_circuit ~subs:b.Circuit.subs b.Circuit.main;
    subs =
      Circuit.Namespace.map
        (fun (s : Circuit.subroutine) ->
          { s with Circuit.circ = compact_circuit ~subs:b.Circuit.subs s.Circuit.circ })
        b.Circuit.subs;
  }

(** Largest wire id + 1 after compaction — the physical register count a
    flat circuit needs. *)
let width_of (c : Circuit.t) : int =
  let m = ref 0 in
  let bump w = if w + 1 > !m then m := w + 1 in
  List.iter (fun (e : Wire.endpoint) -> bump e.Wire.wire) c.Circuit.inputs;
  Array.iter
    (fun g -> List.iter (fun (e : Wire.endpoint) -> bump e.Wire.wire) (Gate.wires g))
    c.Circuit.gates;
  !m
