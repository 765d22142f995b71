(** Quantum registers: little-endian arrays of qubits.

    The common substrate of the arithmetic types ([Qdint], [Qinttf],
    [Fpreal]): allocation, copying, bitwise operations, and the shape
    witness connecting a register to its parameter version (an [int]) and
    its classical version (an array of bits) — the [QShape IntM QDInt CInt]
    instance of the paper (§4.5). *)

open Quipper
open Circ

type t = Wire.qubit array (* index 0 = least significant bit *)

let width (r : t) = Array.length r

let to_list (r : t) = Array.to_list r
let of_list l : t = Array.of_list l

(** Shape witness for a [width]-bit register, relating [int] parameters,
    qubit registers, and classical bit registers. *)
let shape width : (int, t, Wire.bit array) Qdata.t =
  Qdata.iso
    ~bto:(fun bools -> Quipper_math.Bitvec.to_int (Quipper_math.Bitvec.of_array bools))
    ~bof:(fun n -> Quipper_math.Bitvec.to_array (Quipper_math.Bitvec.of_int ~width n))
    ~qto:Fun.id ~qof:Fun.id ~cto:Fun.id ~cof:Fun.id
    (Qdata.array_of width Qdata.qubit)

(** Initialise a fresh register holding the constant [v]. *)
let init ~width (v : int) : t Circ.t =
  let+ qs =
    mapm qinit_bit (Quipper_math.Bitvec.to_list (Quipper_math.Bitvec.of_int ~width v))
  in
  Array.of_list qs

let init_zero ~width : t Circ.t = init ~width 0

(** Assertively terminate a register holding the constant [v]. *)
let term (v : int) (r : t) : unit Circ.t =
  iterm
    (fun (b, q) -> qterm_bit b q)
    (List.combine
       (Quipper_math.Bitvec.to_list (Quipper_math.Bitvec.of_int ~width:(width r) v))
       (to_list r))

(** [xor_into ~source ~target]: target ^= source, bitwise CNOTs. *)
let xor_into ~(source : t) ~(target : t) : unit Circ.t =
  if width source <> width target then
    Errors.raise_ (Shape_mismatch "xor_into: width mismatch");
  iterm
    (fun (s, d) -> cnot ~control:s ~target:d)
    (List.combine (to_list source) (to_list target))

(** Fresh CNOT-copy of a register (valid for computational-basis data, the
    standard idiom inside classical oracles). *)
let copy (r : t) : t Circ.t =
  let* c = init_zero ~width:(width r) in
  let* () = xor_into ~source:r ~target:c in
  return c

(** [xor_const k r]: r ^= k for a classical constant k (X gates on the
    1-bits). *)
let xor_const (k : int) (r : t) : unit Circ.t =
  iterm
    (fun (b, q) -> if b then qnot_ q else return ())
    (List.combine
       (Quipper_math.Bitvec.to_list (Quipper_math.Bitvec.of_int ~width:(width r) k))
       (to_list r))

(** Controls asserting that register [r] holds the constant [k]: positive
    control on 1-bits, negative on 0-bits (the "quantum test" pattern used
    by qRAM addressing). *)
let const_controls (k : int) (r : t) : Gate.control list =
  List.map2
    (fun b q -> if b then ctl q else ctl_neg q)
    (Quipper_math.Bitvec.to_list (Quipper_math.Bitvec.of_int ~width:(width r) k))
    (to_list r)

(** Swap two registers wire-by-wire (the a14_SWAP of §5.3.2). *)
let swap_registers (a : t) (b : t) : unit Circ.t =
  if width a <> width b then Errors.raise_ (Shape_mismatch "swap: width mismatch");
  iterm (fun (x, y) -> swap x y) (List.combine (to_list a) (to_list b))

(** Rotate the register's bit assignment left by [k] positions: a pure
    relabelling, no gates — multiplying by 2^k when arithmetic is taken
    modulo 2^l - 1 (see {!Qinttf.double}). *)
let rotate_left (r : t) k : t =
  let l = width r in
  if l = 0 then r
  else
    let k = ((k mod l) + l) mod l in
    Array.init l (fun i -> r.(((i - k) mod l + l) mod l))

(** Apply [hadamard] to every qubit: uniform superposition over all values. *)
let hadamard_all (r : t) : unit Circ.t = iterm hadamard_ (to_list r)
