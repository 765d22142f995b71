(** Circuits and hierarchical (boxed) circuits.

    A [t] is a straight-line sequence of gates together with its input and
    output aritys (typed wire lists). A [b] ("boxed circuit", Quipper's
    [BCircuit]) pairs a main circuit with a namespace of named subroutine
    definitions; [Subroutine] gates in any circuit refer into the namespace.
    Keeping subroutines shared rather than inlined is what lets Quipper
    represent circuits with trillions of gates in memory (paper §4.4.4) —
    the whole-circuit operators and the resource counter all work
    hierarchically. *)

type t = {
  inputs : Wire.endpoint list;
  gates : Gate.t array;
  outputs : Wire.endpoint list;
}

(** A subroutine definition. [controllable] records whether calls to it may
    receive controls (true when the body is purely unitary). *)
type subroutine = { circ : t; controllable : bool }

module Namespace = Map.Make (String)

type b = {
  main : t;
  subs : subroutine Namespace.t;
  sub_order : string list;  (** definition order, for stable printing *)
}

let of_main main = { main; subs = Namespace.empty; sub_order = [] }

let find_sub b name =
  match Namespace.find_opt name b.subs with
  | Some s -> s
  | None -> Errors.raise_ (Unknown_subroutine name)

let gate_count_shallow (c : t) =
  Array.fold_left
    (fun acc g -> if Gate.is_comment g then acc else acc + 1)
    0 c.gates

(* ------------------------------------------------------------------ *)
(* Well-formedness                                                     *)

(** Check that a circuit is physically well-formed: every gate addresses
    live wires of the right type, no wire is used twice by one gate, inits
    allocate fresh wires, terminations kill them, and the final live set
    matches the declared outputs. Raises [Errors.Error] otherwise. Used by
    tests and after transformation passes. *)
let validate ?(subs : subroutine Namespace.t = Namespace.empty) (c : t) =
  (* wire -> 0 for a qubit, 1 for a bit *)
  let live = Wire.Itbl.create 64 in
  let add w (ty : Wire.ty) = Wire.Itbl.replace live w (match ty with Q -> 0 | C -> 1) in
  List.iter
    (fun (e : Wire.endpoint) ->
      if Wire.Itbl.mem live e.wire then
        Errors.invalidf "duplicate input wire %d" e.wire;
      add e.wire e.ty)
    c.inputs;
  let check_live w ty =
    match Wire.Itbl.find live w with
    | -1 -> Errors.raise_ (Dead_wire w)
    | v ->
        let ty' : Wire.ty = if v = 0 then Q else C in
        if ty <> ty' then
          Errors.raise_ (Wire_type { wire = w; expected = ty; got = ty' })
  in
  let apply_gate (g : Gate.t) =
    Gate.check_distinct g;
    match g with
    | Gate.Gate { name; targets; controls; _ } ->
        (match Gate.primitive_arity name with
        | Some n when n <> List.length targets ->
            Errors.invalidf "gate %s expects %d targets" name n
        | _ -> ());
        List.iter (fun w -> check_live w Wire.Q) targets;
        List.iter (fun (c : Gate.control) -> check_live c.cwire c.cty) controls
    | Gate.Rot { targets; controls; _ } ->
        List.iter (fun w -> check_live w Wire.Q) targets;
        List.iter (fun (c : Gate.control) -> check_live c.cwire c.cty) controls
    | Gate.Phase { controls; _ } ->
        List.iter (fun (c : Gate.control) -> check_live c.cwire c.cty) controls
    | Gate.Init { ty; wire; _ } ->
        if Wire.Itbl.mem live wire then
          Errors.invalidf "init of already-live wire %d" wire;
        add wire ty
    | Gate.Term { ty; wire; _ } | Gate.Discard { ty; wire } ->
        check_live wire ty;
        Wire.Itbl.remove live wire
    | Gate.Measure { wire } ->
        check_live wire Wire.Q;
        add wire Wire.C
    | Gate.Cgate { out; ins; _ } ->
        List.iter (fun w -> check_live w Wire.C) ins;
        if Wire.Itbl.mem live out then
          Errors.invalidf "cgate output wire %d already live" out;
        add out Wire.C
    | Gate.Subroutine { name; inv; inputs; outputs; controls } -> (
        List.iter (fun (c : Gate.control) -> check_live c.cwire c.cty) controls;
        match Namespace.find_opt name subs with
        | None ->
            (* unknown subroutine: treat as opaque, inputs stay live *)
            List.iter (fun w -> check_live w Wire.Q) inputs;
            List.iter
              (fun w -> if not (Wire.Itbl.mem live w) then add w Wire.Q)
              outputs
        | Some { circ; controllable } ->
            if controls <> [] && not controllable then
              Errors.raise_ (Not_controllable ("subroutine " ^ name));
            let d_in = if inv then circ.outputs else circ.inputs in
            let d_out = if inv then circ.inputs else circ.outputs in
            if List.length inputs <> List.length d_in then
              Errors.raise_
                (Shape_mismatch (Fmt.str "call to %s: input arity" name));
            if List.length outputs <> List.length d_out then
              Errors.raise_
                (Shape_mismatch (Fmt.str "call to %s: output arity" name));
            List.iter2
              (fun w (e : Wire.endpoint) -> check_live w e.ty)
              inputs d_in;
            (* inputs not among outputs die; outputs not among inputs appear *)
            List.iter (fun w -> Wire.Itbl.remove live w) inputs;
            List.iter2
              (fun w (e : Wire.endpoint) ->
                if Wire.Itbl.mem live w then Errors.raise_ (No_cloning w);
                add w e.ty)
              outputs d_out)
    | Gate.Comment _ -> ()
  in
  Array.iter apply_gate c.gates;
  List.iter (fun (e : Wire.endpoint) -> check_live e.wire e.ty) c.outputs;
  if Wire.Itbl.length live <> List.length c.outputs then
    Errors.invalidf "circuit leaves %d wires live but declares %d outputs"
      (Wire.Itbl.length live) (List.length c.outputs)

(** Reject a box call graph with a cycle: a box that calls itself,
    directly or through other boxes, has no finite expansion, and every
    walker that expands calls would run forever on it. Names without a
    definition are opaque leaves, as in {!validate}. *)
let check_acyclic (b : b) =
  let state : (string, [ `Open | `Closed ]) Hashtbl.t = Hashtbl.create 16 in
  let rec visit stack name =
    match Hashtbl.find_opt state name with
    | Some `Closed -> ()
    | Some `Open ->
        (* [stack] is the open path, innermost first; the cycle is its
           suffix from [name]'s own frame *)
        let rec upto acc = function
          | [] -> acc
          | n :: _ when n = name -> n :: acc
          | n :: rest -> upto (n :: acc) rest
        in
        Errors.invalidf "recursive box call: %s"
          (String.concat " -> " (upto [ name ] stack))
    | None -> (
        match Namespace.find_opt name b.subs with
        | None -> ()
        | Some s ->
            Hashtbl.replace state name `Open;
            Array.iter
              (function
                | Gate.Subroutine { name = callee; _ } ->
                    visit (name :: stack) callee
                | _ -> ())
              s.circ.gates;
            Hashtbl.replace state name `Closed)
  in
  Namespace.iter (fun name _ -> visit [] name) b.subs

let validate_b (b : b) =
  check_acyclic b;
  validate ~subs:b.subs b.main;
  Namespace.iter (fun _ s -> validate ~subs:b.subs s.circ) b.subs

(* ------------------------------------------------------------------ *)
(* Structural hashing                                                  *)

(* One canonical structural hash for the whole stack: the shot service's
   request and template caches, the resolved body hashes of [Boxdefs]
   (keys of Fuse's compiled programs and of Stream_opt's body caches) and
   golden tests all key off this definition. It is
   order-sensitive, parameter-sensitive (rotation angles enter via their
   IEEE-754 bit patterns, so 0.1 +. 0.2 <> 0.3 hashes differently) and
   box-aware (a Subroutine gate folds in the callee's body hash, not just
   its name, so same-named boxes with different bodies cannot alias). *)

let mix (h : int64) (v : int64) : int64 =
  (* splitmix64-style finalizer over an order-sensitive combine *)
  let open Int64 in
  let z = add (logxor h (mul v 0xBF58476D1CE4E5B9L)) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0x94D049BB133111EBL in
  let z = mul (logxor z (shift_right_logical z 27)) 0xFF51AFD7ED558CCDL in
  logxor z (shift_right_logical z 31)

let mix_int h i = mix h (Int64.of_int i)
let mix_bool h b = mix h (if b then 1L else 0L)
let mix_float h f = mix h (Int64.bits_of_float f)

let mix_string h s =
  let h = mix_int h (String.length s) in
  String.fold_left (fun h c -> mix_int h (Char.code c)) h s

let mix_ty h (ty : Wire.ty) = mix_int h (match ty with Wire.Q -> 0 | Wire.C -> 1)

let mix_endpoint h (e : Wire.endpoint) = mix_ty (mix_int h e.wire) e.ty

let mix_control h (c : Gate.control) =
  mix_bool (mix_ty (mix_int h c.cwire) c.cty) c.positive

let mix_controls h cs = List.fold_left mix_control (mix_int h (List.length cs)) cs
let mix_wires h ws = List.fold_left mix_int (mix_int h (List.length ws)) ws

let hash_gate_gen ~(skel : bool) ~(resolve : string -> int64 option) h (g : Gate.t) =
  match g with
  | Gate.Gate { name; inv; targets; controls } ->
      mix_controls (mix_wires (mix_bool (mix_string (mix_int h 1) name) inv) targets) controls
  | Gate.Rot { name; angle; inv; targets; controls } ->
      (* in skeleton mode the angle is replaced by a fixed marker, so two
         instantiations of the same rotation template collide on purpose *)
      let ha = if skel then mix_int (mix_string (mix_int h 2) name) 0x5ca1ab1e
               else mix_float (mix_string (mix_int h 2) name) angle in
      mix_controls (mix_wires (mix_bool ha inv) targets) controls
  | Gate.Phase { angle; controls } ->
      let ha = if skel then mix_int (mix_int h 3) 0x5ca1ab1e
               else mix_float (mix_int h 3) angle in
      mix_controls ha controls
  | Gate.Init { ty; value; wire } -> mix_int (mix_bool (mix_ty (mix_int h 4) ty) value) wire
  | Gate.Term { ty; value; wire } -> mix_int (mix_bool (mix_ty (mix_int h 5) ty) value) wire
  | Gate.Discard { ty; wire } -> mix_int (mix_ty (mix_int h 6) ty) wire
  | Gate.Measure { wire } -> mix_int (mix_int h 7) wire
  | Gate.Cgate { name; out; ins } ->
      mix_wires (mix_int (mix_string (mix_int h 8) name) out) ins
  | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
      let h = mix_string (mix_int h 9) name in
      let h = match resolve name with Some bh -> mix h bh | None -> mix_int h (-1) in
      mix_controls (mix_wires (mix_wires (mix_bool h inv) inputs) outputs) controls
  | Gate.Comment _ ->
      (* comments are transparent everywhere else in the stack (counting,
         optimization, simulation), so they do not perturb the hash *)
      h

let hash_t_gen ~skel ?(resolve = fun _ -> None) (c : t) : int64 =
  let h = 0x51D07C1B9E6A2F35L in
  let h = List.fold_left mix_endpoint (mix_int h (List.length c.inputs)) c.inputs in
  let h = Array.fold_left (hash_gate_gen ~skel ~resolve) h c.gates in
  List.fold_left mix_endpoint (mix_int h (List.length c.outputs)) c.outputs

let hash_t ?resolve c = hash_t_gen ~skel:false ?resolve c
let hash_skeleton_t ?resolve c = hash_t_gen ~skel:true ?resolve c

(* ------------------------------------------------------------------ *)
(* Reversal and box calls                                              *)

let reverse (c : t) : t =
  let gates =
    Array.of_list
      (Array.fold_left
         (fun acc g -> if Gate.is_comment g then acc else Gate.inverse g :: acc)
         [] c.gates)
  in
  { inputs = c.outputs; gates; outputs = c.inputs }

(* What a box call means, stated once for every walker that expands or
   keys calls: a definition looked up by name, its resolved body hashes,
   the body a call runs (for [inv], its reverse with the formals
   swapped) and the call-site wire map. *)
module Boxdefs = struct
  type circuit = t

  type t = {
    defs : (string, subroutine) Hashtbl.t;
    exact : (string, int64) Hashtbl.t; (* resolved hashes, reset on define *)
    skeleton : (string, int64) Hashtbl.t;
    inverses : (string, circuit) Hashtbl.t;
  }

  let create () =
    {
      defs = Hashtbl.create 16;
      exact = Hashtbl.create 16;
      skeleton = Hashtbl.create 16;
      inverses = Hashtbl.create 16;
    }

  let define t name sub =
    Hashtbl.replace t.defs name sub;
    (* this name's hash — and that of any box calling it — changes; only
       its own reversed body does *)
    Hashtbl.reset t.exact;
    Hashtbl.reset t.skeleton;
    Hashtbl.remove t.inverses name

  let of_b (b : b) =
    let t = create () in
    Namespace.iter (define t) b.subs;
    t

  let find t name =
    match Hashtbl.find_opt t.defs name with
    | Some s -> s
    | None -> Errors.raise_ (Unknown_subroutine name)

  let resolved ~skel t name =
    let memo = if skel then t.skeleton else t.exact in
    let rec go n =
      match Hashtbl.find_opt memo n with
      | Some h -> h
      | None ->
          (* placeholder guards against recursive namespaces *)
          Hashtbl.add memo n (mix_string 0L n);
          let h =
            match Hashtbl.find_opt t.defs n with
            | None -> mix_string 0xD6E8FEB86659FD93L n
            | Some s ->
                mix_bool
                  (hash_t_gen ~skel ~resolve:(fun m -> Some (go m)) s.circ)
                  s.controllable
          in
          Hashtbl.replace memo n h;
          h
    in
    go name

  let hash t name = resolved ~skel:false t name
  let hash_skeleton t name = resolved ~skel:true t name

  let callee t name ~inv =
    let s = find t name in
    if not inv then s.circ
    else
      match Hashtbl.find_opt t.inverses name with
      | Some c -> c
      | None ->
          let c = reverse s.circ in
          Hashtbl.add t.inverses name c;
          c

  let renamer ~fresh (callee : circuit) ~inputs ~outputs =
    let map = Hashtbl.create 16 in
    List.iter2
      (fun (e : Wire.endpoint) a -> Hashtbl.replace map e.wire a)
      callee.inputs inputs;
    List.iter2
      (fun (e : Wire.endpoint) a -> Hashtbl.replace map e.wire a)
      callee.outputs outputs;
    fun w ->
      match Hashtbl.find_opt map w with
      | Some w' -> w'
      | None ->
          let w' = fresh () in
          Hashtbl.replace map w w';
          w'
end

let hash_gen ~skel (b : b) : int64 =
  let defs = Boxdefs.of_b b in
  hash_t_gen ~skel ~resolve:(fun n -> Some (Boxdefs.resolved ~skel defs n)) b.main

let hash (b : b) : int64 = hash_gen ~skel:false b
let hash_skeleton (b : b) : int64 = hash_gen ~skel:true b

(* ------------------------------------------------------------------ *)
(* Angle sites                                                         *)

(* A parameterized circuit family is a skeleton plus a vector of angles:
   one site per [Rot]/[Phase] gate, enumerated in deterministic order —
   main gates in array order, then each subroutine body in [sub_order].
   [angles] reads the vector off a representative; [subst_angles] builds
   the member at another parameter point. Two circuits with equal
   [hash_skeleton] have the same number of sites in the same positions. *)

let fold_angles_t f acc (c : t) =
  Array.fold_left
    (fun acc g ->
      match g with
      | Gate.Rot { angle; _ } | Gate.Phase { angle; _ } -> f acc angle
      | _ -> acc)
    acc c.gates

let angles_t (c : t) : float array =
  let buf = ref [] in
  let n = fold_angles_t (fun n a -> buf := a :: !buf; n + 1) 0 c in
  let arr = Array.make n 0.0 in
  List.iteri (fun i a -> arr.(n - 1 - i) <- a) !buf;
  arr

let fold_angles f acc (b : b) =
  let acc = fold_angles_t f acc b.main in
  List.fold_left
    (fun acc name ->
      match Namespace.find_opt name b.subs with
      | None -> acc
      | Some s -> fold_angles_t f acc s.circ)
    acc b.sub_order

let num_angles (b : b) : int = fold_angles (fun n _ -> n + 1) 0 b

let angles (b : b) : float array =
  let buf = ref [] in
  let n = fold_angles (fun n a -> buf := a :: !buf; n + 1) 0 b in
  let arr = Array.make n 0.0 in
  List.iteri (fun i a -> arr.(n - 1 - i) <- a) !buf;
  arr

let subst_angles_t_from (pos : int ref) (v : float array) (c : t) : t =
  let gates =
    Array.map
      (fun g ->
        match g with
        | Gate.Rot r ->
            let i = !pos in
            incr pos;
            if Int64.bits_of_float v.(i) = Int64.bits_of_float r.angle then g
            else Gate.Rot { r with angle = v.(i) }
        | Gate.Phase p ->
            let i = !pos in
            incr pos;
            if Int64.bits_of_float v.(i) = Int64.bits_of_float p.angle then g
            else Gate.Phase { p with angle = v.(i) }
        | _ -> g)
      c.gates
  in
  { c with gates }

let subst_angles (b : b) (v : float array) : b =
  let n = num_angles b in
  if Array.length v <> n then
    Errors.invalidf "subst_angles: expected %d angles, got %d" n
      (Array.length v);
  let pos = ref 0 in
  let main = subst_angles_t_from pos v b.main in
  let subs =
    List.fold_left
      (fun subs name ->
        match Namespace.find_opt name subs with
        | None -> subs
        | Some s ->
            let circ = subst_angles_t_from pos v s.circ in
            Namespace.add name { s with circ } subs)
      b.subs b.sub_order
  in
  { b with main; subs }

(* ------------------------------------------------------------------ *)
(* Inlining                                                            *)

(** Expand every [Subroutine] gate of [b]'s main circuit recursively,
    producing a flat circuit together with, for each emitted gate, the
    stack of subroutine names it was inlined out of (outermost first; []
    for gates of the main circuit). Fresh ids for the callee's internal
    wires count up from past every wire of the main circuit. Only
    feasible for small circuits, but invaluable for testing that
    hierarchical operations (counting, reversal, simulation) agree with
    their flat counterparts, and for fault-site enumeration, which must
    report where in the hierarchy a fault lands. *)
let inline_provenance (b : b) : t * string list array =
  let defs = Boxdefs.of_b b in
  let next = ref 0 in
  let bump w = if w >= !next then next := w + 1 in
  let fresh () =
    let w = !next in
    incr next;
    w
  in
  let out = Vec.create () in
  let prov = Vec.create () in
  let rec emit_circuit (c : t) (rename : Wire.t -> Wire.t) (path : string list) =
    Array.iter
      (fun g ->
        match Gate.rename rename g with
        | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
            let callee = Boxdefs.callee defs name ~inv in
            (* inline recursively, adding the call's controls to every
               controllable gate of the body *)
            let before = Vec.length out in
            emit_circuit callee
              (Boxdefs.renamer ~fresh callee ~inputs ~outputs)
              (path @ [ name ]);
            if controls <> [] then
              for i = before to Vec.length out - 1 do
                Vec.set out i (Gate.add_controls controls (Vec.get out i))
              done
        | g ->
            List.iter (fun (e : Wire.endpoint) -> bump e.wire) (Gate.wires g);
            Vec.push out g;
            Vec.push prov path)
      c.gates
  in
  List.iter (fun (e : Wire.endpoint) -> bump e.wire) b.main.inputs;
  List.iter (fun (e : Wire.endpoint) -> bump e.wire) b.main.outputs;
  (* pre-scan to make sure fresh ids do not collide with main's wires *)
  Array.iter
    (fun g -> List.iter (fun (e : Wire.endpoint) -> bump e.wire) (Gate.wires g))
    b.main.gates;
  emit_circuit b.main Fun.id [];
  ( { inputs = b.main.inputs; gates = Vec.to_array out; outputs = b.main.outputs },
    Vec.to_array prov )

let inline (b : b) : t = fst (inline_provenance b)
