(** The Triangle Finding oracle (paper §5.1, §5.3.1): the edge predicate of
    the input graph, defined by modular arithmetic over l-bit QIntTF
    integers — "each oracle call requires the extensive use of modular
    arithmetic" taken modulo 2^l - 1.

    The oracle injects the 2^n graph nodes into the space of l-bit
    integers and tests a symmetric arithmetic predicate:

        edge(u, w)  <=>  the top bit of (u'^17 ⊞ w'^17) is set

    (u', w' are the l-bit injections of u and w; ⊞ is addition mod
    2^l - 1). Being a symmetric function of two pseudo-randomly scrambled
    labels, the predicate has the edge-density and no-structure properties
    the algorithm's analysis needs; the QCS problem specification's
    predicate differs in details the paper does not print, so we document
    this as our concrete choice (DESIGN.md).

    Subroutine naming follows §5.2/§5.3: [o8_MUL] multiplication,
    [o7_ADD] controlled addition, [o4_POW17] the seventeenth power
    (Figure 2's [with_computed_fun] chain of squarings), [o1_ORACLE] the
    top-level edge test. Each is a boxed subcircuit; the inverses
    appearing in the generated circuit are the starred boxes of Figures 2
    and 3. *)

open Quipper
open Circ
module Qureg = Quipper_arith.Qureg
module Qinttf = Quipper_arith.Qinttf

type params = { l : int; n : int; r : int }

let default_params = { l = 4; n = 3; r = 2 }

let reg_shape l = Qureg.shape l

(* ------------------------------------------------------------------ *)
(* o7_ADD: boxed controlled adder                                      *)

let o7_shape_in l = Qdata.triple Qdata.qubit (reg_shape l) (reg_shape l)
let o7_shape_out l =
  Qdata.quad Qdata.qubit (reg_shape l) (reg_shape l) (reg_shape l)

(** [o7_ADD ~l (ctl, x, y)]: boxed fresh s := y ⊞ (ctl ? x : 0). *)
let o7_ADD ~l : Wire.qubit * Qureg.t * Qureg.t -> (Wire.qubit * Qureg.t * Qureg.t * Qureg.t) Circ.t =
  let reg = reg_shape l in
  box "o7_ADD_controlled" ~in_:(o7_shape_in l) ~out:(o7_shape_out l)
    (fun (ctl, x, y) ->
      let* () =
        comment_with_labels "ENTER: o7_ADD_controlled"
          [ lab Qdata.qubit ctl "ctrl"; lab reg x "x"; lab reg y "y" ]
      in
      let* s = Qinttf.add ~ctl ~x ~y () in
      let* () = comment_with_labels "EXIT: o7_ADD_controlled" [ lab reg s "s" ] in
      return (ctl, x, y, s))

(* ------------------------------------------------------------------ *)
(* o8_MUL: boxed multiplication (Figure 3)                             *)

let pair_shape l = Qdata.pair (reg_shape l) (reg_shape l)

(** [o8_MUL ~l (x, y)]: boxed fresh p := x*y mod 2^l - 1, the shift-add /
    rotation-doubling ladder of Figure 3: controlled adds interleaved with
    [double_TF] wire rotations, intermediate sums uncomputed in the
    mirrored second half. *)
let o8_MUL ~l : Qureg.t * Qureg.t -> (Qureg.t * Qureg.t * Qureg.t) Circ.t =
  let reg = reg_shape l in
  box "o8" ~in_:(pair_shape l) ~out:(Qdata.triple reg reg reg)
    (fun (x, y) ->
      let* () = comment_with_labels "ENTER: o8_MUL" [ lab reg x "x"; lab reg y "y" ] in
      let add = o7_ADD ~l in
      let* p =
        with_computed
          (let* s0 = Qinttf.init_zero ~width:l in
           let rec go i xr s =
             if i = l then return s
             else
               let* () = comment_with_labels "ENTER: double_TF" [ lab reg xr "x" ] in
               let* (_, _, _, s') = add (y.(i), xr, s) in
               let xr' = Qinttf.double xr in
               let* () = comment_with_labels "EXIT: double_TF" [ lab reg xr' "x" ] in
               go (i + 1) xr' s'
           in
           go 0 x s0)
          (fun p ->
            let* out = Qinttf.init_zero ~width:l in
            let* () = Qinttf.xor_into ~source:p ~target:out in
            return out)
      in
      let* () = comment_with_labels "EXIT: o8_MUL" [ lab reg p "p" ] in
      return (x, y, p))

(* ------------------------------------------------------------------ *)
(* o4_POW17 (Figure 2)                                                 *)

(** Squaring via copy / multiply / uncopy, using the boxed multiplier. *)
let square_boxed ~l : Qureg.t -> Qureg.t Circ.t =
  let mul = o8_MUL ~l in
  fun x ->
    with_computed (Qinttf.copy x) (fun x' ->
        let* (_, _, p) = mul (x, x') in
        return p)

(** [o4_POW17 ~l x]: boxed (x, x^17): raise to the 16th power by four
    squarings, multiply by x, uncompute the squarings — the paper's
    Figure 2, verbatim structure including the comments. *)
let o4_POW17 ~l : Qureg.t -> (Qureg.t * Qureg.t) Circ.t =
  let reg = reg_shape l in
  box "o4" ~in_:reg ~out:(pair_shape l)
    (fun x ->
      let* () = comment_with_label "ENTER: o4_POW17" reg x "x" in
      let square = square_boxed ~l in
      let* x, x17 =
        with_computed_fun x
          (fun x ->
            let* x2 = square x in
            let* x4 = square x2 in
            let* x8 = square x4 in
            let* x16 = square x8 in
            return (x, x2, x4, x8, x16))
          (fun (x, x2, x4, x8, x16) ->
            let* (_, _, x17) = o8_MUL ~l (x, x16) in
            return ((x, x2, x4, x8, x16), x17))
      in
      let* () = comment_with_labels "EXIT: o4_POW17" [ lab reg x "x"; lab reg x17 "x17" ] in
      return (x, x17))

(* ------------------------------------------------------------------ *)
(* o1_ORACLE: the edge test                                            *)

(** Inject an n-bit node register into a fresh l-bit QIntTF register
    (CNOT copies of the low bits). *)
let inject ~l (v : Qureg.t) : Qureg.t Circ.t =
  let* x = Qinttf.init_zero ~width:l in
  let* () =
    iterm
      (fun i -> cnot ~control:v.(i) ~target:x.(i))
      (List.init (min l (Array.length v)) Fun.id)
  in
  return x

(** [o1_ORACLE ~p (u, w, out)]: out ^= edge(u, w) for n-bit node registers
    u, w. Boxed; cost is dominated by two POW17s and their uncomputation. *)
let o1_ORACLE ~(p : params) :
    Qureg.t * Qureg.t * Wire.qubit -> (Qureg.t * Qureg.t * Wire.qubit) Circ.t =
  let l = p.l and n = p.n in
  let node = reg_shape n in
  let shape = Qdata.triple node node Qdata.qubit in
  box "o1" ~in_:shape ~out:shape
    (fun (u, w, out) ->
      let* () =
        comment_with_labels "ENTER: o1_ORACLE"
          [ lab node u "u"; lab node w "w"; lab Qdata.qubit out "e" ]
      in
      let* () =
        with_computed
          (let* uu = inject ~l u in
           let* ww = inject ~l w in
           let pow17 = o4_POW17 ~l in
           let* _, u17 = pow17 uu in
           let* _, w17 = pow17 ww in
           let* one = qinit_bit true in
           let* (_, _, _, s) = o7_ADD ~l (one, u17, w17) in
           return s)
          (fun s -> cnot ~control:s.(l - 1) ~target:out)
      in
      let* () = comment_with_labels "EXIT: o1_ORACLE" [ lab Qdata.qubit out "e" ] in
      return (u, w, out))

(** Classical reference implementation of the edge predicate, for tests
    and for the classical post-processing step (§3.5). *)
let edge_sem ~(p : params) (u : int) (w : int) : bool =
  let l = p.l in
  let m = (1 lsl l) - 1 in
  let pow17 x =
    let x = x land m in
    let rec go k acc = if k = 0 then acc else go (k - 1) (acc * (x mod m) mod m) in
    if x mod m = 0 && x <> 0 then x (* all-ones fixed point *) else go 17 1 mod m
  in
  ignore pow17;
  (* bit-exact reference: mirror the circuit's operations on raw
     representations *)
  let add = Qinttf.add_sem ~l in
  let mul x y =
    (* shift-add with rotation doubling, matching the circuit *)
    let rec go i xr acc =
      if i = l then acc
      else
        let acc = if (y lsr i) land 1 = 1 then add xr acc else acc in
        go (i + 1) (Qinttf.double_sem ~l xr) acc
    in
    go 0 x 0
  in
  let square x = mul x x in
  let pow17_raw x =
    let x2 = square x in
    let x4 = square x2 in
    let x8 = square x4 in
    let x16 = square x8 in
    mul x x16
  in
  let s = add (pow17_raw u) (pow17_raw w) in
  s land (1 lsl (l - 1)) <> 0
