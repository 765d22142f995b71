(* Random circuit-program generators shared by the property-test suites
   (the [quipper_testgen] library).

   A generated "program" is a reversible circuit-producing function on a
   fixed register of qubits: a sequence of primitive unitary operations,
   ancilla blocks, controlled blocks and compute/uncompute sandwiches —
   enough structural variety to exercise the builder, reversal,
   decomposition, counting, streaming and the simulators, while staying
   unitary so every whole-circuit operator applies.

   Program generators take size parameters (op-count range, block
   nesting depth) with the historical defaults; [sample] draws one value
   deterministically from an integer seed for non-QCheck harnesses. *)

open Quipper
open Circ

type op =
  | H of int
  | X of int
  | T of int
  | S of int
  | CNot of int * int
  | Toffoli of int * bool * int * bool * int (* (c1, sign1, c2, sign2, target) *)
  | Swap of int * int
  | Rz of int * float
  | Rx of int * float
  | GPhase of float (* observable only under controls *)
  | Controlled_block of int * op list
  | Ancilla_block of int * op list (* control index for a CNOT onto the ancilla *)

let rec op_gen ~n ~depth : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  let distinct2 =
    pair idx idx >|= fun (a, b) -> (a, if b = a then (b + 1) mod n else b)
  in
  let distinct3 =
    triple idx idx idx >|= fun (a, b, c) ->
    let b = if b = a then (b + 1) mod n else b in
    let c = if c = a || c = b then (max a b + 1) mod n else c in
    let c = if c = a || c = b then (c + 1 + max a b) mod n else c in
    (a, b, c)
  in
  let base =
    [
      (3, idx >|= fun i -> H i);
      (3, idx >|= fun i -> X i);
      (2, idx >|= fun i -> T i);
      (2, idx >|= fun i -> S i);
      (3, distinct2 >|= fun (a, b) -> CNot (a, b));
      (2, distinct2 >|= fun (a, b) -> Swap (a, b));
      ( 2,
        pair distinct3 (pair bool bool) >|= fun ((a, b, c), (s1, s2)) ->
        Toffoli (a, s1, b, s2, c) );
    ]
  in
  let recursive =
    if depth <= 0 then []
    else
      [
        ( 1,
          pair idx (list_size (int_range 1 4) (op_gen ~n ~depth:(depth - 1)))
          >|= fun (c, ops) -> Controlled_block (c, ops) );
        ( 1,
          pair idx (list_size (int_range 1 3) (op_gen ~n ~depth:(depth - 1)))
          >|= fun (c, ops) -> Ancilla_block (c, ops) );
      ]
  in
  frequency (base @ recursive)

let program_gen ?(min_ops = 1) ?(max_ops = 15) ?(depth = 2) ~n () : op list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range min_ops max_ops) (op_gen ~n ~depth))

(* The angle-bearing extension: the general mix plus Z/X rotations and
   global phases at arbitrary angles — the circuits parameter sweeps are
   made of. A separate generator so the angle-free suites keep their
   historical distributions (and shrink traces). *)
let rec rot_op_gen ~n ~depth : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  let angle = float_range (-1.5) 1.5 in
  let recursive =
    if depth <= 0 then []
    else
      [
        ( 1,
          pair idx (list_size (int_range 1 4) (rot_op_gen ~n ~depth:(depth - 1)))
          >|= fun (c, ops) -> Controlled_block (c, ops) );
      ]
  in
  frequency
    ([
       (2, op_gen ~n ~depth:0);
       (3, pair idx angle >|= fun (i, a) -> Rz (i, a));
       (2, pair idx angle >|= fun (i, a) -> Rx (i, a));
       (1, angle >|= fun a -> GPhase a);
     ]
    @ recursive)

let rot_program_gen ?(min_ops = 1) ?(max_ops = 15) ?(depth = 2) ~n () :
    op list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range min_ops max_ops) (rot_op_gen ~n ~depth))

(* Restricted op generators for the differential-simulation harness:
   each simulator pair is exercised on the fragment of the gate set both
   sides implement. *)

(* Basis-state-preserving ops (any controls allowed): the classical
   simulator's whole world. Blocks stay in the subset recursively. *)
let rec classical_op_gen ~n ~depth : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  let distinct2 =
    pair idx idx >|= fun (a, b) -> (a, if b = a then (b + 1) mod n else b)
  in
  let distinct3 =
    triple idx idx idx >|= fun (a, b, c) ->
    let b = if b = a then (b + 1) mod n else b in
    let c = if c = a || c = b then (max a b + 1) mod n else c in
    let c = if c = a || c = b then (c + 1 + max a b) mod n else c in
    (a, b, c)
  in
  let base =
    [
      (3, idx >|= fun i -> X i);
      (3, distinct2 >|= fun (a, b) -> CNot (a, b));
      (2, distinct2 >|= fun (a, b) -> Swap (a, b));
      ( 2,
        pair distinct3 (pair bool bool) >|= fun ((a, b, c), (s1, s2)) ->
        Toffoli (a, s1, b, s2, c) );
    ]
  in
  let recursive =
    if depth <= 0 then []
    else
      [
        ( 1,
          pair idx (list_size (int_range 1 4) (classical_op_gen ~n ~depth:(depth - 1)))
          >|= fun (c, ops) -> Controlled_block (c, ops) );
        ( 1,
          pair idx (list_size (int_range 1 3) (classical_op_gen ~n ~depth:(depth - 1)))
          >|= fun (c, ops) -> Ancilla_block (c, ops) );
      ]
  in
  frequency (base @ recursive)

let classical_program_gen ?(min_ops = 1) ?(max_ops = 15) ?(depth = 2) ~n () :
    op list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range min_ops max_ops) (classical_op_gen ~n ~depth))

(* Flat Clifford ops (H, S, X, CNOT, swap). No blocks: an extra control
   on a CNOT would leave the Clifford group. *)
let clifford_op_gen ~n : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  let distinct2 =
    pair idx idx >|= fun (a, b) -> (a, if b = a then (b + 1) mod n else b)
  in
  frequency
    [
      (3, idx >|= fun i -> H i);
      (2, idx >|= fun i -> X i);
      (2, idx >|= fun i -> S i);
      (3, distinct2 >|= fun (a, b) -> CNot (a, b));
      (1, distinct2 >|= fun (a, b) -> Swap (a, b));
    ]

let clifford_program_gen ?(min_ops = 1) ?(max_ops = 25) ~n () : op list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range min_ops max_ops) (clifford_op_gen ~n))

(* The classical ∩ Clifford fragment: wire permutations and parity
   (X, CNOT, swap) — runnable on all three simulators at once. *)
let permutation_op_gen ~n : op QCheck2.Gen.t =
  let open QCheck2.Gen in
  let idx = int_range 0 (n - 1) in
  let distinct2 =
    pair idx idx >|= fun (a, b) -> (a, if b = a then (b + 1) mod n else b)
  in
  frequency
    [
      (2, idx >|= fun i -> X i);
      (3, distinct2 >|= fun (a, b) -> CNot (a, b));
      (1, distinct2 >|= fun (a, b) -> Swap (a, b));
    ]

let permutation_program_gen ?(min_ops = 1) ?(max_ops = 25) ~n () : op list QCheck2.Gen.t =
  QCheck2.Gen.(list_size (int_range min_ops max_ops) (permutation_op_gen ~n))

(** Draw one value from a generator, deterministically from [seed] — the
    seeded interface for harnesses (benchmarks, fault campaigns, shell
    drivers) that are not QCheck properties. *)
let sample ?(seed = 0) (g : 'a QCheck2.Gen.t) : 'a =
  QCheck2.Gen.generate1 ~rand:(Random.State.make [| 0x5eed; seed |]) g

(* distinctness after the mod arithmetic is not guaranteed; filter when
   interpreting *)
let rec interp (qs : Wire.qubit array) (o : op) : unit Circ.t =
  let n = Array.length qs in
  let ok3 a b c = a <> b && b <> c && a <> c in
  match o with
  | H i -> hadamard_ qs.(i mod n)
  | X i -> qnot_ qs.(i mod n)
  | T i ->
      let* _ = gate_T qs.(i mod n) in
      return ()
  | S i ->
      let* _ = gate_S qs.(i mod n) in
      return ()
  | CNot (a, b) ->
      let a = a mod n and b = b mod n in
      if a <> b then cnot ~control:qs.(a) ~target:qs.(b) else return ()
  | Swap (a, b) ->
      let a = a mod n and b = b mod n in
      if a <> b then swap qs.(a) qs.(b) else return ()
  | Toffoli (a, s1, b, s2, c) ->
      let a = a mod n and b = b mod n and c = c mod n in
      if ok3 a b c then
        qnot_ qs.(c)
        |> controlled
             [ (if s1 then ctl qs.(a) else ctl_neg qs.(a));
               (if s2 then ctl qs.(b) else ctl_neg qs.(b)) ]
      else return ()
  | Rz (i, a) -> rot_Z a qs.(i mod n)
  | Rx (i, a) -> rot_X a qs.(i mod n)
  | GPhase a -> global_phase a
  | Controlled_block (c, ops) ->
      let c = c mod n in
      (* avoid self-controls: restrict the block to the other wires *)
      let others = Array.of_list (List.filteri (fun i _ -> i <> c) (Array.to_list qs)) in
      if Array.length others = 0 then return ()
      else with_controls [ ctl qs.(c) ] (iterm (interp others) ops)
  | Ancilla_block (c, ops) ->
      let c = c mod n in
      with_ancilla (fun anc ->
          let* () = cnot ~control:qs.(c) ~target:anc in
          let extended = Array.append qs [| anc |] in
          let* () = iterm (interp extended) ops in
          (* undo everything acting on the ancilla so it terminates at |0>:
             replay the ops in reverse via the library reversal *)
          let* _ =
            reverse_fun
              ~in_:(Qdata.list_of (Array.length extended) Qdata.qubit)
              ~out:(Qdata.list_of (Array.length extended) Qdata.qubit)
              (fun ql ->
                let arr = Array.of_list ql in
                let* () = iterm (interp arr) ops in
                return (Array.to_list arr))
              (Array.to_list extended)
          in
          cnot ~control:qs.(c) ~target:anc)

let program (ops : op list) (qs : Wire.qubit array) : unit Circ.t =
  iterm (interp qs) ops

(** The program as a circuit-producing function on the input register —
    the thing both [Circ.generate] and [Circ.run_streaming] can run, so
    differential streaming tests drive the identical computation. *)
let program_fun (ops : op list) (ql : Wire.qubit list) : Wire.qubit list Circ.t =
  let qs = Array.of_list ql in
  let* () = program ops qs in
  return ql

(** Generate the circuit of a random program on [n] qubits. *)
let circuit_of_program ~n (ops : op list) : Circuit.b =
  let b, _ = Circ.generate ~in_:(Qdata.list_of n Qdata.qubit) (program_fun ops) in
  b

(** The circuit of [ops] followed by its library-generated reverse: maps
    every basis input to itself, in any correct simulator — the
    differential harness's deterministic observable. *)
let roundtrip_circuit_of_program ~n (ops : op list) : Circuit.b =
  let w = Qdata.list_of n Qdata.qubit in
  let prog ql =
    let qs = Array.of_list ql in
    let* () = program ops qs in
    return (Array.to_list qs)
  in
  let b, _ =
    Circ.generate ~in_:w (fun ql ->
        let* ql = prog ql in
        reverse_simple w prog ql)
  in
  b

(* ------------------------------------------------------------------ *)
(* Wide gates: the width-linear wire walks against list references     *)

(** Random gates over a small pool of wire ids, so that repeats are
    common. Subroutine calls get inputs with duplicates, outputs that
    permute the inputs, outputs not among the inputs and repeated
    outputs; widths reach a few hundred wires. The pool sits at an
    offset that may be negative or past 2^40, as parsed circuits may. *)
let wide_gate_gen : Gate.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* base = oneofl [ 0; -50; 1 lsl 40 ] in
  let* pool = int_range 1 300 in
  let wire = map (fun i -> base + i) (int_range 0 (pool - 1)) in
  let wires = list_size (int_range 0 (min 400 (2 * pool))) wire in
  let control =
    map3 (fun cwire positive q -> { Gate.cwire; cty = (if q then Wire.Q else Wire.C); positive })
      wire bool bool
  in
  let controls = list_size (int_range 0 4) control in
  let outputs inputs =
    oneof
      [
        shuffle_l inputs;
        wires;
        (* some inputs pass through, the rest are born at the call *)
        map (List.mapi (fun i w -> if i mod 3 = 0 then w + pool else w)) (shuffle_l inputs);
      ]
  in
  let subroutine =
    let* inputs = wires in
    let* outputs = outputs inputs in
    let* controls = controls in
    let* inv = bool in
    return (Gate.Subroutine { name = "f"; inv; inputs; outputs; controls })
  in
  frequency
    [
      (6, subroutine);
      ( 2,
        map2 (fun targets controls -> Gate.Gate { name = "U"; inv = false; targets; controls })
          (list_size (int_range 1 3) wire) controls );
      (1, map (fun controls -> Gate.Phase { angle = 0.5; controls }) controls);
      (1, map2 (fun out ins -> Gate.Cgate { name = "xor"; out; ins }) wire wires);
      (1, map (fun wire -> Gate.Measure { wire }) wire);
      (1, map (fun ws -> Gate.Comment { text = "c"; labels = List.map (fun w -> (w, "l")) ws }) wires);
    ]

(** [Gate.wires] as it was defined with list scans: a call's outputs not
    among its inputs are found with [List.mem]. *)
let reference_wires (g : Gate.t) : Wire.endpoint list =
  let ctl (c : Gate.control) = { Wire.wire = c.cwire; ty = c.cty } in
  match g with
  | Gate.Subroutine { inputs; outputs; controls; _ } ->
      let outs = List.filter (fun w -> not (List.mem w inputs)) outputs in
      List.map Wire.qw inputs @ List.map Wire.qw outs @ List.map ctl controls
  | Gate.Gate { targets; controls; _ } | Gate.Rot { targets; controls; _ } ->
      List.map Wire.qw targets @ List.map ctl controls
  | Gate.Phase { controls; _ } -> List.map ctl controls
  | Gate.Init { ty; wire; _ } | Gate.Term { ty; wire; _ } | Gate.Discard { ty; wire } ->
      [ { Wire.wire; ty } ]
  | Gate.Measure { wire } -> [ Wire.qw wire ]
  | Gate.Cgate { out; ins; _ } -> Wire.cw out :: List.map Wire.cw ins
  | Gate.Comment { labels; _ } -> List.map (fun (w, _) -> Wire.qw w) labels

(** The no-cloning check as it was defined with list scans: the first
    wire of [reference_wires g] that occurs earlier in it, comments
    exempt. *)
let reference_first_repeat (g : Gate.t) : Wire.t option =
  let rec go seen = function
    | [] -> None
    | (e : Wire.endpoint) :: es ->
        if List.mem e.wire seen then Some e.wire else go (e.wire :: seen) es
  in
  match g with Gate.Comment _ -> None | g -> go [] (reference_wires g)
