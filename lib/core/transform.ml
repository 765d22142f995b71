(** Generic circuit transformers (§3.4, §4.4.3).

    A transformer maps each gate to a replacement gate sequence; applying it
    to a boxed circuit rewrites the main circuit and every subroutine body,
    preserving the hierarchy. This is Quipper's mechanism for "replacing one
    elementary gate set by another" and for whole-circuit optimisation. The
    replacement sequence may allocate helper wires via the supplied
    allocator (needed e.g. when decomposing multiply-controlled gates with
    ancillas); any wire it allocates must be terminated within the
    replacement. *)

type alloc = Wire.ty -> Wire.t

(** A gate rewriter: given a fresh-wire allocator and a gate, produce the
    replacement sequence ([None] = keep unchanged, cheaper than [Some
    [g]]). *)
type rule = alloc -> Gate.t -> Gate.t list option

let apply_to_circuit (rule : rule) ~(fresh : int ref) (c : Circuit.t) : Circuit.t =
  let alloc ty =
    ignore ty;
    let w = !fresh in
    incr fresh;
    w
  in
  let out = Vec.create () in
  Array.iter
    (fun g ->
      match rule alloc g with
      | None -> Vec.push out g
      | Some gs -> List.iter (Vec.push out) gs)
    c.Circuit.gates;
  { c with Circuit.gates = Vec.to_array out }

(** Largest wire id mentioned anywhere in a boxed circuit, so the allocator
    can hand out non-colliding ids. *)
let max_wire (b : Circuit.b) : int =
  let m = ref (-1) in
  let scan_circuit (c : Circuit.t) =
    let bump w = if w > !m then m := w in
    List.iter (fun (e : Wire.endpoint) -> bump e.Wire.wire) c.Circuit.inputs;
    List.iter (fun (e : Wire.endpoint) -> bump e.Wire.wire) c.Circuit.outputs;
    Array.iter
      (fun g -> List.iter (fun (e : Wire.endpoint) -> bump e.Wire.wire) (Gate.wires g))
      c.Circuit.gates
  in
  scan_circuit b.main;
  Circuit.Namespace.iter (fun _ s -> scan_circuit s.Circuit.circ) b.subs;
  !m

(* Apply a whole-circuit function to the main circuit, then to every
   subroutine body. *)
let map_circuits (f : Circuit.t -> Circuit.t) (b : Circuit.b) : Circuit.b =
  let main = f b.main in
  let subs =
    Circuit.Namespace.map
      (fun (s : Circuit.subroutine) -> { s with Circuit.circ = f s.Circuit.circ })
      b.subs
  in
  { b with Circuit.main; subs }

let apply (rule : rule) (b : Circuit.b) : Circuit.b =
  let fresh = ref (max_wire b + 1) in
  map_circuits (apply_to_circuit rule ~fresh) b

(* ------------------------------------------------------------------ *)
(* Peephole optimisation                                               *)

let same_wires = List.equal Int.equal

let same_control_list = List.equal Gate.control_equal

let gates_cancel (a : Gate.t) (b : Gate.t) =
  match (a, b) with
  | Gate.Gate ga, Gate.Gate gb ->
      String.equal ga.name gb.name && same_wires ga.targets gb.targets
      && same_control_list ga.controls gb.controls
      && (if Gate.self_inverse ga.name then true else ga.inv <> gb.inv)
  | Gate.Rot ra, Gate.Rot rb ->
      String.equal ra.name rb.name && same_wires ra.targets rb.targets
      && same_control_list ra.controls rb.controls
      && ra.angle = rb.angle && ra.inv <> rb.inv
  | Gate.Subroutine sa, Gate.Subroutine sb ->
      (* a call followed by its inverse with matching wire flow *)
      String.equal sa.name sb.name && sa.inv <> sb.inv
      && same_control_list sa.controls sb.controls
      && same_wires sa.outputs sb.inputs && same_wires sa.inputs sb.outputs
  | Gate.Init ia, Gate.Term tb ->
      (* a wire born and immediately terminated *)
      ia.wire = tb.wire && ia.value = tb.value && ia.ty = tb.ty
  | Gate.Term ta, Gate.Init ib ->
      (* termination then rebirth at the asserted value *)
      ta.wire = ib.wire && ta.value = ib.value && ta.ty = ib.ty
  | _ -> false

(** Cancel adjacent mutually-inverse gates until a fixed point: the paper's
    "whole-circuit optimizations" in its simplest useful form. Comments are
    transparent to cancellation but preserved. *)
let cancel_inverses_circuit (c : Circuit.t) : Circuit.t =
  (* one pass with a stack; iterate to fixed point *)
  let rec pass gates =
    let stack = ref [] in
    let changed = ref false in
    Array.iter
      (fun g ->
        match g with
        | Gate.Comment _ -> stack := g :: !stack
        | g -> (
            (* look at the top non-comment entry *)
            let rec top_split acc = function
              | Gate.Comment _ as cmt :: tl -> top_split (cmt :: acc) tl
              | x :: tl -> Some (List.rev acc, x, tl)
              | [] -> None
            in
            match top_split [] !stack with
            | Some (comments, prev, rest) when gates_cancel prev g ->
                changed := true;
                stack := List.rev_append (List.rev comments) rest
            | _ -> stack := g :: !stack))
      gates;
    let gates' = Array.of_list (List.rev !stack) in
    if !changed then pass gates' else gates'
  in
  { c with Circuit.gates = pass c.Circuit.gates }

let cancel_inverses (b : Circuit.b) : Circuit.b =
  map_circuits cancel_inverses_circuit b

(* ------------------------------------------------------------------ *)
(* Inline all boxes (a transformer in its own right)                   *)

let inline = Circuit.inline
