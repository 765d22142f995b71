(** One driver for every simulator: the paper's run functions (§4.4.5)
    share their shape — build a state, load the inputs, feed it gates,
    measure or read the outputs — and the semantics of classical wires.
    Both are written here once; a backend supplies only its quantum
    gates and its measurement. *)

open Quipper

module Cenv = struct
  (* wire -> 0 or 1 *)
  type t = { name : string; values : Wire.Itbl.t }

  let create name = { name; values = Wire.Itbl.create 16 }
  let copy e = { e with values = Wire.Itbl.copy e.values }

  let read e w =
    match Wire.Itbl.find e.values w with
    | -1 ->
        Errors.raise_
          (Simulation (Fmt.str "%s: wire %d has no classical value" e.name w))
    | v -> v = 1

  let write e w v = Wire.Itbl.replace e.values w (Bool.to_int v)

  let bindings e =
    List.sort compare
      (Wire.Itbl.fold (fun w v acc -> (w, v = 1) :: acc) e.values [])

  let sat e (c : Gate.control) = read e c.cwire = c.positive

  let apply e (g : Gate.t) =
    let fail fmt = Fmt.kstr (fun s -> Errors.raise_ (Simulation (e.name ^ ": " ^ s))) fmt in
    match g with
    | Gate.Init { value; wire; _ } -> write e wire value
    | Gate.Term { value; wire; _ } ->
        if read e wire <> value then
          Errors.raise_ (Termination_assertion { wire; expected = value });
        Wire.Itbl.remove e.values wire
    | Gate.Discard { wire; _ } -> Wire.Itbl.remove e.values wire
    | Gate.Cgate { name; out; ins } -> (
        match Gate.eval_cgate name (List.map (read e) ins) with
        | Some v -> write e out v
        | None ->
            fail "unknown classical gate %s on %d inputs" name (List.length ins))
    | Gate.Phase _ | Gate.Measure _ | Gate.Comment _ -> ()
    | Gate.Gate { name; _ } | Gate.Rot { name; _ } ->
        fail "gate %s is not classical" name
    | Gate.Subroutine { name; _ } ->
        fail "subroutine call %s (inline the circuit first)" name
end

let load name apply (es : Wire.endpoint list) (inputs : bool list) =
  if List.length inputs <> List.length es then
    Errors.raise_ (Shape_mismatch (name ^ " run: input arity"));
  List.iter2
    (fun (e : Wire.endpoint) value ->
      apply (Gate.Init { ty = e.Wire.ty; value; wire = e.Wire.wire }))
    es inputs

let readout ~measure ~read_bit (es : Wire.endpoint list) =
  List.map
    (fun (e : Wire.endpoint) ->
      match e.Wire.ty with
      | Wire.Q -> measure e.Wire.wire
      | Wire.C -> read_bit e.Wire.wire)
    es

module type ENGINE = sig
  val name : string

  type state

  val create : ?seed:int -> unit -> state
  val apply_gate : state -> Gate.t -> unit
  val read_bit : state -> Wire.t -> bool
  val measure : state -> Wire.t -> bool
end

module Make (E : ENGINE) = struct
  let load st es inputs = load E.name (E.apply_gate st) es inputs

  let readout st es =
    readout ~measure:(E.measure st) ~read_bit:(E.read_bit st) es

  let measure_and_read st (w : ('b, 'q, 'c) Qdata.t) (q : 'q) : 'b =
    Qdata.bbuild w (readout st (Qdata.qleaves w q))

  let run_fun ?seed ~(in_ : ('b, 'q, 'c) Qdata.t) (input : 'b)
      (f : 'q -> 'r Circ.t) : E.state * 'r =
    let st = E.create ?seed () in
    Circ.run_streaming ~boxing:false
      ~lift:(fun _ w -> E.read_bit st w)
      ~in_ f
      (Sink.make
         ~on_inputs:(fun es -> load st es (Qdata.bleaves in_ input))
         ~on_gate:(E.apply_gate st)
         ~finish:(fun _ -> st)
         ())

  let run_circuit ?seed (b : Circuit.b) (inputs : bool list) : E.state =
    let flat = Circuit.inline b in
    let st = E.create ?seed () in
    load st flat.Circuit.inputs inputs;
    Array.iter (E.apply_gate st) flat.Circuit.gates;
    st
end
