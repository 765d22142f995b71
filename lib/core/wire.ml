(** Wires: the horizontal lines of a circuit diagram.

    A wire is identified by an integer and carries either quantum or
    classical data (paper §4.2.3: Quipper's extended circuit model freely
    mixes the two). Wire identities are stable across the lifetime of a
    circuit-building run: a [Measure] gate keeps the wire id but flips its
    type from [Q] to [C], matching Quipper's picture of a qubit wire turning
    into a classical wire.

    The [qubit] and [bit] wrappers are the handles user programs hold; they
    exist so that the type checker separates quantum from classical wires at
    the API level (the paper's [Qubit] vs [Bit] distinction, §4.3.2). *)

type t = int

type ty = Q | C

let ty_name = function Q -> "qubit" | C -> "bit"

(** A typed wire endpoint, as occurring in circuit aritys and shape
    witnesses. *)
type endpoint = { wire : t; ty : ty }

let qw wire = { wire; ty = Q }
let cw wire = { wire; ty = C }

type qubit = Qubit of t
type bit = Bit of t

let qubit_wire (Qubit w) = w
let bit_wire (Bit w) = w

let pp_endpoint ppf e =
  Fmt.pf ppf "%s %d" (match e.ty with Q -> "Q" | C -> "C") e.wire

let pp_qubit ppf (Qubit w) = Fmt.pf ppf "q%d" w
let pp_bit ppf (Bit w) = Fmt.pf ppf "c%d" w

let rec mem (w : t) = function [] -> false | w' :: ws -> w = w' || mem w ws

(* Wire-keyed maps to non-negative ints: open addressing with linear
   probing over two int arrays, [-1] marking a free cell. Nothing is
   allocated per operation (the arrays double at half load), and removal
   shifts the rest of the probe run back instead of leaving tombstones. *)
module Itbl = struct
  type nonrec t = { mutable keys : t array; mutable vals : int array; mutable size : int }

  let create n = { keys = Array.make n 0; vals = Array.make n (-1); size = 0 }

  let length t = t.size
  let home keys k = (k * 0x2545F4914F6CDD1D) lsr 17 land (Array.length keys - 1)

  (* the cell holding [k], or the free cell ending its probe run *)
  let rec probe t k i =
    if t.vals.(i) < 0 || t.keys.(i) = k then i
    else probe t k ((i + 1) land (Array.length t.keys - 1))

  let find t k = t.vals.(probe t k (home t.keys k))
  let mem t k = find t k >= 0

  let rec replace t k v =
    let i = probe t k (home t.keys k) in
    if t.vals.(i) >= 0 then t.vals.(i) <- v
    else if 2 * (t.size + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) 0;
      t.vals <- Array.make (2 * Array.length keys) (-1);
      t.size <- 0;
      Array.iteri (fun j v' -> if v' >= 0 then replace t keys.(j) v') vals;
      replace t k v
    end
    else begin
      t.keys.(i) <- k;
      t.vals.(i) <- v;
      t.size <- t.size + 1
    end

  (* fill the hole at [i] from later cells of its probe run *)
  let rec shift t hole j =
    let mask = Array.length t.keys - 1 in
    let j = (j + 1) land mask in
    if t.vals.(j) < 0 then t.vals.(hole) <- -1
    else if (j - home t.keys t.keys.(j)) land mask >= (j - hole) land mask then begin
      t.keys.(hole) <- t.keys.(j);
      t.vals.(hole) <- t.vals.(j);
      shift t j j
    end
    else shift t hole j

  let remove t k =
    let i = probe t k (home t.keys k) in
    if t.vals.(i) >= 0 then begin
      t.size <- t.size - 1;
      shift t i i
    end

  let copy t = { keys = Array.copy t.keys; vals = Array.copy t.vals; size = t.size }

  let fold f t acc =
    let acc = ref acc in
    Array.iteri (fun i v -> if v >= 0 then acc := f t.keys.(i) v !acc) t.vals;
    !acc
end

(* Open addressing with linear probing over power-of-two arrays. A slot
   is occupied iff its tag exceeds [base]; [clear] raises [base] past
   every tag in use, so it costs O(1) and the arrays are reused. *)
module Marks = struct
  type nonrec t = {
    mutable keys : t array;
    mutable tags : int array;
    mutable shift : int; (* 63 - log2 (capacity) *)
    mutable base : int;
    mutable size : int;
  }

  let create () =
    { keys = Array.make 64 0; tags = Array.make 64 0; shift = 57; base = 0; size = 0 }

  let clear m =
    m.base <- m.base + 4;
    m.size <- 0

  let rec probe m w i =
    if m.tags.(i) <= m.base || m.keys.(i) = w then i
    else probe m w ((i + 1) land (Array.length m.keys - 1))

  (* Fibonacci hashing: the top bits of [w] times 2^63 / phi *)
  let slot m w = probe m w ((w * 0x4F1BBCDCBFA53E0B) lsr m.shift)

  let find m w =
    let t = m.tags.(slot m w) - m.base in
    if t > 0 then t else 0

  let grow m =
    let keys = m.keys and tags = m.tags in
    let n = 2 * Array.length keys in
    m.keys <- Array.make n 0;
    m.tags <- Array.make n 0;
    m.shift <- m.shift - 1;
    Array.iteri
      (fun i t ->
        if t > m.base then begin
          let j = slot m keys.(i) in
          m.keys.(j) <- keys.(i);
          m.tags.(j) <- t
        end)
      tags

  let set m w tag =
    let i = slot m w in
    if m.tags.(i) <= m.base then begin
      m.keys.(i) <- w;
      m.size <- m.size + 1
    end;
    m.tags.(i) <- m.base + tag;
    if 2 * m.size > Array.length m.keys then grow m

  let call m ~inputs ~outputs =
    clear m;
    List.iter (fun w -> set m w 1) inputs;
    List.iter (fun w -> set m w (find m w lor 2)) outputs
end
