(** The quantum walk of the Triangle Finding algorithm (paper §5.1–5.3):
    a Grover-based walk on the Hamming graph H associated to G, whose
    nodes are 2^r-tuples of graph nodes, adjacent when they differ in one
    coordinate.

    Registers (names as in §5.3.2):
    - [tt]: the tuple — 2^r node registers of n qubits each;
    - [i]: an r-qubit index into the tuple;
    - [v]: an n-qubit node;
    - [ee]: the edge table — one qubit per pair (j, k), k < j, caching
      edge(tt_j, tt_k).

    Subroutines (boxed, names as in the paper): [a6_QWSH] performs one
    walk step — diffuse (i, v), then under [with_computed_fun] fetch
    tt_i into a scratch node ([qram_fetch]), fetch/store the edge column
    ([a12_FetchStoreE]), recompute the column against the new node with
    2^r oracle calls ([a13_UPDATE]), store back ([qram_store]) — around an
    [a14_SWAP] of the scratch node with v. The triangle test
    [a5_TestTriangleEdges] phase-flips on any triangle among the cached
    edges. The top level interleaves a5 with segments of QWSH steps under
    amplitude amplification.

    Iteration counts (documented in DESIGN.md; the paper does not print
    its bounds): R1 = ceil(pi/4 * sqrt(2^n)) outer iterations, each
    running R2 = R1 * ceil(sqrt(2^r)) walk steps. Walk steps are grouped
    into boxed segments of [segment] steps so that the materialised
    circuit stays small no matter how large the counts are — the paper's
    hierarchical-circuit story (§4.4.4). *)

open Quipper
open Circ
module Qureg = Quipper_arith.Qureg

type params = Oracle.params = { l : int; n : int; r : int }

let default_params = Oracle.default_params

type registers = {
  tt : Qureg.t array; (* 2^r entries of n qubits *)
  i : Qureg.t; (* r qubits *)
  v : Qureg.t; (* n qubits *)
  ee : Wire.qubit array; (* C(2^r, 2) entries *)
}

let tuple_size p = 1 lsl p.r
let ee_size p = tuple_size p * (tuple_size p - 1) / 2

(** Index of pair (j,k), k < j, in the flat edge table. *)
let ee_index j k =
  if k >= j then invalid_arg "ee_index";
  (j * (j - 1) / 2) + k

(* Shape witness for the full register file. Builds it anew: a boxed
   generator computes it once, not per call. *)
let regs_shape p :
    ((int list * int * int * bool list), registers, 'c) Qdata.t =
  let base =
    Qdata.quad
      (Qdata.array_of (tuple_size p) (Qureg.shape p.n))
      (Qureg.shape p.r) (Qureg.shape p.n)
      (Qdata.array_of (ee_size p) Qdata.qubit)
  in
  let to_lists (tt, i, v, ee) = (Array.to_list tt, i, v, Array.to_list ee)
  and of_lists (tt, i, v, ee) = (Array.of_list tt, i, v, Array.of_list ee) in
  Qdata.iso ~bto:to_lists ~bof:of_lists
    ~qto:(fun (tt, i, v, ee) -> { tt; i; v; ee })
    ~qof:(fun { tt; i; v; ee } -> (tt, i, v, ee))
    ~cto:to_lists ~cof:of_lists base

(* ------------------------------------------------------------------ *)
(* qRAM (the paper's [qram_fetch] / [qram_store])                      *)

(** ttd ^= tt[i]: for every address a, copy tt_a under the "quantum test"
    i = a. *)
let qram_fetch ~(p : params) (i : Qureg.t) (tt : Qureg.t array)
    (ttd : Qureg.t) : unit Circ.t =
  iterm
    (fun a ->
      Qureg.xor_into ~source:tt.(a) ~target:ttd
      |> controlled (Qureg.const_controls a i))
    (List.init (tuple_size p) Fun.id)

(** tt[i] ^= ttd. *)
let qram_store ~(p : params) (i : Qureg.t) (tt : Qureg.t array)
    (ttd : Qureg.t) : unit Circ.t =
  iterm
    (fun a ->
      Qureg.xor_into ~source:ttd ~target:tt.(a)
      |> controlled (Qureg.const_controls a i))
    (List.init (tuple_size p) Fun.id)

(* ------------------------------------------------------------------ *)
(* Walk subroutines                                                    *)

(** a7_DIFFUSE: place the index and node choice registers in uniform
    superposition. *)
let a7_DIFFUSE (i : Qureg.t) (v : Qureg.t) : unit Circ.t =
  let* () = Quipper_primitives.Walk.diffuse i in
  Quipper_primitives.Walk.diffuse v

(** a12_FetchStoreE: swap the edge column of tuple position i into the
    scratch column eed. *)
let a12_FetchStoreE ~(p : params) (i : Qureg.t) (ee : Wire.qubit array)
    (eed : Wire.qubit array) : unit Circ.t =
  iterm
    (fun j ->
      iterm
        (fun k ->
          if k = j then return ()
          else
            let idx = if k < j then ee_index j k else ee_index k j in
            swap ee.(idx) eed.(k) |> controlled (Qureg.const_controls j i))
        (List.init (tuple_size p) Fun.id))
    (List.init (tuple_size p) Fun.id)

(** a13_UPDATE: recompute the scratch edge column against the scratch
    node: one oracle call per tuple position — the dominant cost of a walk
    step. *)
let a13_UPDATE ~(p : params) (tt : Qureg.t array) (ttd : Qureg.t)
    (eed : Wire.qubit array) : unit Circ.t =
  let oracle = Oracle.o1_ORACLE ~p in
  iterm
    (fun k ->
      let* _ = oracle (ttd, tt.(k), eed.(k)) in
      return ())
    (List.init (tuple_size p) Fun.id)

(** a14_SWAP: exchange the scratch node with the choice node. *)
let a14_SWAP (ttd : Qureg.t) (v : Qureg.t) : unit Circ.t =
  Qureg.swap_registers ttd v

(** a6_QWSH: one walk step on the Hamming graph (§5.3.2, verbatim
    structure including comments and ancilla scoping). *)
let a6_QWSH ~(p : params) : registers -> registers Circ.t =
  let shape = regs_shape p and index = Qureg.shape p.r and node = Qureg.shape p.n in
  box "a6" ~in_:shape ~out:shape
    (fun regs ->
      let* () =
        comment_with_labels "ENTER: a6_QWSH" [ lab index regs.i "i"; lab node regs.v "v" ]
      in
      let* () =
        with_ancilla_init
          (List.init p.n (fun _ -> false))
          (fun ttd_l ->
            let ttd = Array.of_list ttd_l in
            with_ancilla_init
              (List.init (tuple_size p) (fun _ -> false))
              (fun eed_l ->
                let eed = Array.of_list eed_l in
                let* () = a7_DIFFUSE regs.i regs.v in
                let* _ =
                  with_computed_fun ()
                    (fun () ->
                      let* () = qram_fetch ~p regs.i regs.tt ttd in
                      let* () = a12_FetchStoreE ~p regs.i regs.ee eed in
                      let* () = a13_UPDATE ~p regs.tt ttd eed in
                      qram_store ~p regs.i regs.tt ttd)
                    (fun () ->
                      let* () = a14_SWAP ttd regs.v in
                      return ((), ()))
                in
                return ()))
      in
      let* () =
        comment_with_labels "EXIT: a6_QWSH" [ lab index regs.i "i"; lab node regs.v "v" ]
      in
      return regs)

(** a5_TestTriangleEdges: flip the phase when the cached edge table
    contains a triangle — a doubly-controlled Z per node triple. *)
let a5_TestTriangleEdges ~(p : params) : registers -> registers Circ.t =
  let shape = regs_shape p in
  box "a5" ~in_:shape ~out:shape
    (fun regs ->
      let ts = tuple_size p in
      let* () =
        iterm
          (fun j ->
            iterm
              (fun k ->
                iterm
                  (fun m ->
                    let* _ =
                      gate_Z regs.ee.(ee_index j k)
                      |> controlled
                           [ ctl regs.ee.(ee_index j m); ctl regs.ee.(ee_index k m) ]
                    in
                    return ())
                  (List.init k Fun.id))
              (List.init j Fun.id))
          (List.init ts Fun.id)
      in
      return regs)

(* ------------------------------------------------------------------ *)
(* Iteration structure                                                 *)

let r1_iterations p =
  let root = sqrt (Float.of_int (1 lsl p.n)) in
  max 1 (int_of_float (ceil (Float.pi /. 4.0 *. root)))

let segment = 8

let r2_iterations p =
  let per = r1_iterations p * max 1 (int_of_float (ceil (sqrt (Float.of_int (1 lsl p.r))))) in
  (* round up to a whole number of boxed segments *)
  (per + segment - 1) / segment * segment

(** A boxed segment of [segment] QWSH steps, so the materialised top-level
    circuit stays tiny regardless of the iteration counts. *)
let walk_segment ~(p : params) : registers -> registers Circ.t =
  let shape = regs_shape p in
  box "a6seg" ~in_:shape ~out:shape (fun regs -> iterate segment (a6_QWSH ~p) regs)

(** a4_GCQWStep: one amplitude-amplification step — the triangle phase
    test followed by a walk of R2 QWSH steps. *)
let a4_GCQWStep ~(p : params) : registers -> registers Circ.t =
  let shape = regs_shape p in
  box "a4" ~in_:shape ~out:shape (fun regs ->
      let* regs = a5_TestTriangleEdges ~p regs in
      iterate (r2_iterations p / segment) (walk_segment ~p) regs)

(** a2_FetchE: populate the initial edge table: one oracle call per node
    pair of the tuple. *)
let a2_FetchE ~(p : params) (regs : registers) : unit Circ.t =
  let oracle = Oracle.o1_ORACLE ~p in
  iterm
    (fun j ->
      iterm
        (fun k ->
          let* _ = oracle (regs.tt.(j), regs.tt.(k), regs.ee.(ee_index j k)) in
          return ())
        (List.init j Fun.id))
    (List.init (tuple_size p) Fun.id)

(** a1_prologue: initialise and superpose the registers and populate the
    edge table — everything before the amplitude-amplification loop. *)
let a1_prologue ~(p : params) : registers Circ.t =
  let* tt =
    mapm (fun _ -> Qureg.init_zero ~width:p.n) (List.init (tuple_size p) Fun.id)
  in
  let* () = iterm Qureg.hadamard_all tt in
  let* i = Qureg.init_zero ~width:p.r in
  let* () = Qureg.hadamard_all i in
  let* v = Qureg.init_zero ~width:p.n in
  let* () = Qureg.hadamard_all v in
  let* ee = mapm (fun _ -> qinit_bit false) (List.init (ee_size p) Fun.id) in
  let regs = { tt = Array.of_list tt; i; v; ee = Array.of_list ee } in
  let* () = a2_FetchE ~p regs in
  return regs

(** a1_epilogue: measure the tuple and edge table, discard the rest (the
    candidate triangle is located classically from the measured tuple and
    edge table, §3.5). *)
let a1_epilogue ~(p : params) (regs : registers) :
    (Wire.bit array list * Wire.bit array) Circ.t =
  let node = Qureg.shape p.n in
  let* tt_bits = mapm (measure node) (Array.to_list regs.tt) in
  let* ee_bits = mapm measure_qubit (Array.to_list regs.ee) in
  let* () = discard (Qureg.shape p.r) regs.i in
  let* () = discard node regs.v in
  return (tt_bits, Array.of_list ee_bits)

(** a1_QWTFP: the whole algorithm — initialise, superpose, populate the
    edge table, amplitude-amplify, measure (§5.2's top level):
    prologue ; a4^R1 ; epilogue, the decomposition symbolic resource
    estimation multiplies through without running the loop. *)
let a1_QWTFP ~(p : params) : (Wire.bit array list * Wire.bit array) Circ.t =
  let* regs = a1_prologue ~p in
  let* regs = iterate (r1_iterations p) (a4_GCQWStep ~p) regs in
  a1_epilogue ~p regs

(** Generate the whole-algorithm circuit. *)
let generate ?(p = default_params) () : Circuit.b =
  let b, _ = Circ.generate_unit (a1_QWTFP ~p) in
  b

(** Generate just the oracle circuit (the paper's [-O] option). *)
let generate_oracle ?(p = default_params) () : Circuit.b =
  let node = Qureg.shape p.n in
  let b, _ =
    Circ.generate
      ~in_:(Qdata.triple node node Qdata.qubit)
      (fun (u, w, e) -> Oracle.o1_ORACLE ~p (u, w, e))
  in
  b

(** Generate just o4_POW17 (the paper's [-s pow17] option / Figure 2). *)
let generate_pow17 ?(p = default_params) () : Circuit.b =
  let b, _ =
    Circ.generate ~in_:(Qureg.shape p.l) (fun x -> Oracle.o4_POW17 ~l:p.l x)
  in
  b

(** Generate just o8_MUL (Figure 3). *)
let generate_mul ?(p = default_params) () : Circuit.b =
  let b, _ =
    Circ.generate
      ~in_:(Qdata.pair (Qureg.shape p.l) (Qureg.shape p.l))
      (fun xy -> Oracle.o8_MUL ~l:p.l xy)
  in
  b

(** Generate one a6_QWSH step. *)
let generate_qwsh ?(p = default_params) () : Circuit.b =
  let b, _ = Circ.generate ~in_:(regs_shape p) (fun regs -> a6_QWSH ~p regs) in
  b
