(* Reference model of the shape witnesses as they were before each
   witness became one put/take pair per side: leaves concatenated with
   [@] at every tuple level, builds that split the list per level and per
   list element. It fixes the leaves, the builds and the error texts the
   witnesses must keep; [test_core] compares them on random nested
   witnesses. Unlike {!Quipper.Qdata}, these builds accept some lists
   with surplus leaves. *)

open Quipper

type ('b, 'q, 'c) t = {
  tys : Wire.ty list;  (** wire types of the leaves of the ['q] version *)
  qleaves : 'q -> Wire.endpoint list;
  qbuild : Wire.endpoint list -> 'q;
      (** rebuild from exactly [List.length tys] endpoints *)
  cleaves : 'c -> Wire.endpoint list;
  cbuild : Wire.endpoint list -> 'c;
  bleaves : 'b -> bool list;
  bbuild : bool list -> 'b;
}

let size w = List.length w.tys

(* ------------------------------------------------------------------ *)
(* Leaf witnesses                                                      *)

let qubit : (bool, Wire.qubit, Wire.bit) t =
  {
    tys = [ Wire.Q ];
    qleaves = (fun (Wire.Qubit w) -> [ Wire.qw w ]);
    qbuild =
      (function
      | [ e ] when e.Wire.ty = Wire.Q -> Wire.Qubit e.Wire.wire
      | _ -> Errors.raise_ (Shape_mismatch "qubit leaf"));
    cleaves = (fun (Wire.Bit w) -> [ Wire.cw w ]);
    cbuild =
      (function
      | [ e ] -> Wire.Bit e.Wire.wire
      | _ -> Errors.raise_ (Shape_mismatch "bit leaf"));
    bleaves = (fun b -> [ b ]);
    bbuild =
      (function [ b ] -> b | _ -> Errors.raise_ (Shape_mismatch "bool leaf"));
  }

(** A classical wire *as quantum data*: its circuit-execution version is a
    [bit] (classical wires participate in Quipper's mixed circuits). *)
let bit : (bool, Wire.bit, Wire.bit) t =
  {
    tys = [ Wire.C ];
    qleaves = (fun (Wire.Bit w) -> [ Wire.cw w ]);
    qbuild =
      (function
      | [ e ] when e.Wire.ty = Wire.C -> Wire.Bit e.Wire.wire
      | _ -> Errors.raise_ (Shape_mismatch "bit leaf"));
    cleaves = (fun (Wire.Bit w) -> [ Wire.cw w ]);
    cbuild =
      (function
      | [ e ] -> Wire.Bit e.Wire.wire
      | _ -> Errors.raise_ (Shape_mismatch "bit leaf"));
    bleaves = (fun b -> [ b ]);
    bbuild =
      (function [ b ] -> b | _ -> Errors.raise_ (Shape_mismatch "bool leaf"));
  }

let unit : (unit, unit, unit) t =
  {
    tys = [];
    qleaves = (fun () -> []);
    qbuild = (fun _ -> ());
    cleaves = (fun () -> []);
    cbuild = (fun _ -> ());
    bleaves = (fun () -> []);
    bbuild = (fun _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Structural combinators                                              *)

let split_at n l =
  let rec go n acc l =
    if n = 0 then (List.rev acc, l)
    else
      match l with
      | [] -> Errors.raise_ (Shape_mismatch "not enough leaves")
      | x :: tl -> go (n - 1) (x :: acc) tl
  in
  go n [] l

let pair (a : ('b1, 'q1, 'c1) t) (b : ('b2, 'q2, 'c2) t) :
    ('b1 * 'b2, 'q1 * 'q2, 'c1 * 'c2) t =
  let na = size a in
  {
    tys = a.tys @ b.tys;
    qleaves = (fun (x, y) -> a.qleaves x @ b.qleaves y);
    qbuild =
      (fun es ->
        let ea, eb = split_at na es in
        (a.qbuild ea, b.qbuild eb));
    cleaves = (fun (x, y) -> a.cleaves x @ b.cleaves y);
    cbuild =
      (fun es ->
        let ea, eb = split_at na es in
        (a.cbuild ea, b.cbuild eb));
    bleaves = (fun (x, y) -> a.bleaves x @ b.bleaves y);
    bbuild =
      (fun bs ->
        let ba, bb = split_at na bs in
        (a.bbuild ba, b.bbuild bb));
  }

let triple a b c =
  let w = pair a (pair b c) in
  {
    tys = w.tys;
    qleaves = (fun (x, y, z) -> w.qleaves (x, (y, z)));
    qbuild =
      (fun es ->
        let x, (y, z) = w.qbuild es in
        (x, y, z));
    cleaves = (fun (x, y, z) -> w.cleaves (x, (y, z)));
    cbuild =
      (fun es ->
        let x, (y, z) = w.cbuild es in
        (x, y, z));
    bleaves = (fun (x, y, z) -> w.bleaves (x, (y, z)));
    bbuild =
      (fun bs ->
        let x, (y, z) = w.bbuild bs in
        (x, y, z));
  }

let quad a b c d =
  let w = pair (pair a b) (pair c d) in
  {
    tys = w.tys;
    qleaves = (fun (x, y, z, u) -> w.qleaves ((x, y), (z, u)));
    qbuild =
      (fun es ->
        let (x, y), (z, u) = w.qbuild es in
        (x, y, z, u));
    cleaves = (fun (x, y, z, u) -> w.cleaves ((x, y), (z, u)));
    cbuild =
      (fun es ->
        let (x, y), (z, u) = w.cbuild es in
        (x, y, z, u));
    bleaves = (fun (x, y, z, u) -> w.bleaves ((x, y), (z, u)));
    bbuild =
      (fun bs ->
        let (x, y), (z, u) = w.bbuild bs in
        (x, y, z, u));
  }

(** [list_of n w]: lists of exactly [n] elements of shape [w]. The length
    is a generation-time parameter, not an input. *)
let list_of n (w : ('b, 'q, 'c) t) : ('b list, 'q list, 'c list) t =
  let k = size w in
  let tys = List.concat (List.init n (fun _ -> w.tys)) in
  let leaves leaf_of l =
    if List.length l <> n then
      Errors.raise_
        (Shape_mismatch (Fmt.str "list length %d, expected %d" (List.length l) n));
    List.concat_map leaf_of l
  in
  let build build_of es =
    let rec go i es acc =
      if i = n then List.rev acc
      else
        let mine, rest = split_at k es in
        go (i + 1) rest (build_of mine :: acc)
    in
    go 0 es []
  in
  {
    tys;
    qleaves = leaves w.qleaves;
    qbuild = build w.qbuild;
    cleaves = leaves w.cleaves;
    cbuild = build w.cbuild;
    bleaves = leaves w.bleaves;
    bbuild = build w.bbuild;
  }

(** [array_of n w]: arrays of exactly [n] elements of shape [w]. *)
let array_of n (w : ('b, 'q, 'c) t) : ('b array, 'q array, 'c array) t =
  let l = list_of n w in
  {
    tys = l.tys;
    qleaves = (fun a -> l.qleaves (Array.to_list a));
    qbuild = (fun es -> Array.of_list (l.qbuild es));
    cleaves = (fun a -> l.cleaves (Array.to_list a));
    cbuild = (fun es -> Array.of_list (l.cbuild es));
    bleaves = (fun a -> l.bleaves (Array.to_list a));
    bbuild = (fun bs -> Array.of_list (l.bbuild bs));
  }

(** Change the surface types of a witness by (iso)morphisms — how library
    types like [Qdint.t] wrap a raw qubit list into an abstract register. *)
let iso ~(bto : 'b1 -> 'b2) ~(bof : 'b2 -> 'b1) ~(qto : 'q1 -> 'q2)
    ~(qof : 'q2 -> 'q1) ~(cto : 'c1 -> 'c2) ~(cof : 'c2 -> 'c1)
    (w : ('b1, 'q1, 'c1) t) : ('b2, 'q2, 'c2) t =
  {
    tys = w.tys;
    qleaves = (fun q -> w.qleaves (qof q));
    qbuild = (fun es -> qto (w.qbuild es));
    cleaves = (fun c -> w.cleaves (cof c));
    cbuild = (fun es -> cto (w.cbuild es));
    bleaves = (fun b -> w.bleaves (bof b));
    bbuild = (fun bs -> bto (w.bbuild bs));
  }

(** List of qubit wire ids of a purely-quantum structure; raises on
    classical leaves. *)
let qubit_wires (w : ('b, 'q, 'c) t) (q : 'q) : Wire.t list =
  List.map
    (fun (e : Wire.endpoint) ->
      match e.ty with
      | Wire.Q -> e.wire
      | Wire.C ->
          Errors.raise_ (Shape_mismatch "expected all-quantum data"))
    (w.qleaves q)
