(** Shape witnesses: Quipper's [QCData] / [QShape] type classes, in OCaml.

    The paper (§4.3.2, §4.5) relates three versions of every data type: a
    *parameter* version [.'b] made of [Bool]s (known at circuit generation
    time), a *quantum* version ['q] made of [Qubit]s, and a *classical
    input* version ['c] made of [Bit]s. Haskell derives the relationship by
    type-class induction on the structure of types; OCaml has no type
    classes, so we pass the induction explicitly as a first-class record of
    conversion functions — a "shape witness". Witnesses are built with the
    combinators below ([qubit], [pair], [list_of n], …); note that
    [list_of] takes the length as a value, which is exactly the paper's
    point that the length of a list is a *parameter* (the "shape" of the
    data).

    Each version is one {!side}: a [put] that writes a value's leaves in
    front of an accumulator and a [take] that reads a value from the
    front of a cursor over leaves, so a structure of [n] leaves costs one
    cons per leaf either way, whatever its nesting.

    Generic operations ([Circ.qinit], [Circ.measure], [Circ.box], …) take a
    witness where the Haskell original would take a [QShape] constraint. *)

type 'l cursor = { mutable rest : 'l list }

type ('v, 'l) side = {
  put : 'v -> 'l list -> 'l list;
  take : 'l cursor -> 'v;
}

type ('b, 'q, 'c) t = {
  tys : Wire.ty list;
  qside : ('q, Wire.endpoint) side;
  cside : ('c, Wire.endpoint) side;
  bside : ('b, bool) side;
}

let size w = List.length w.tys
let mismatch what = Errors.raise_ (Shape_mismatch what)

let leaves s v = s.put v []

let build s l =
  let cur = { rest = l } in
  let v = s.take cur in
  match cur.rest with [] -> v | _ :: _ -> mismatch "too many leaves"

let qleaves w = leaves w.qside
let qbuild w = build w.qside
let cleaves w = leaves w.cside
let cbuild w = build w.cside
let bleaves w = leaves w.bside
let bbuild w = build w.bside

(* ------------------------------------------------------------------ *)
(* Leaf witnesses                                                      *)

let leaf what ok of_leaf to_leaf =
  {
    put = (fun v acc -> to_leaf v :: acc);
    take =
      (fun cur ->
        match cur.rest with
        | l :: tl when ok l ->
            cur.rest <- tl;
            of_leaf l
        | _ -> mismatch what);
  }

let typed ty (e : Wire.endpoint) = e.ty = ty
let any _ = true
let bit_leaf = leaf "bit leaf" any (fun (e : Wire.endpoint) -> Wire.Bit e.wire) (fun (Wire.Bit w) -> Wire.cw w)
let bool_leaf = leaf "bool leaf" any Fun.id Fun.id

let qubit : (bool, Wire.qubit, Wire.bit) t =
  {
    tys = [ Wire.Q ];
    qside =
      leaf "qubit leaf" (typed Wire.Q)
        (fun (e : Wire.endpoint) -> Wire.Qubit e.wire)
        (fun (Wire.Qubit w) -> Wire.qw w);
    cside = bit_leaf;
    bside = bool_leaf;
  }

(** A classical wire *as quantum data*: its circuit-execution version is a
    [bit] (classical wires participate in Quipper's mixed circuits). *)
let bit : (bool, Wire.bit, Wire.bit) t =
  {
    tys = [ Wire.C ];
    qside =
      leaf "bit leaf" (typed Wire.C)
        (fun (e : Wire.endpoint) -> Wire.Bit e.wire)
        (fun (Wire.Bit w) -> Wire.cw w);
    cside = bit_leaf;
    bside = bool_leaf;
  }

let unit_side = { put = (fun () acc -> acc); take = (fun _ -> ()) }
let unit : (unit, unit, unit) t = { tys = []; qside = unit_side; cside = unit_side; bside = unit_side }

(* ------------------------------------------------------------------ *)
(* Structural combinators                                              *)

(* A build reports the first error in this order: too few leaves for a
   pair's first component, then the second component's errors, then the
   first's; list elements in order, each checked for enough leaves before
   its own errors. [take] reads left to right, so a failed take re-reads
   what the order puts before its error. *)

let rec has n l = n <= 0 || match l with [] -> false | _ :: tl -> has (n - 1) tl
let rec drop n l = if n = 0 then l else match l with [] -> l | _ :: tl -> drop (n - 1) tl
let not_enough () = mismatch "not enough leaves"

let pair_side na a b =
  {
    put = (fun (x, y) acc -> a.put x (b.put y acc));
    take =
      (fun cur ->
        let start = cur.rest in
        match a.take cur with
        | x ->
            let y = b.take cur in
            (x, y)
        | exception e ->
            if not (has na start) then not_enough ();
            cur.rest <- drop na start;
            ignore (b.take cur);
            raise e);
  }

let pair (a : ('b1, 'q1, 'c1) t) (b : ('b2, 'q2, 'c2) t) :
    ('b1 * 'b2, 'q1 * 'q2, 'c1 * 'c2) t =
  let na = size a in
  {
    tys = a.tys @ b.tys;
    qside = pair_side na a.qside b.qside;
    cside = pair_side na a.cside b.cside;
    bside = pair_side na a.bside b.bside;
  }

let map_side to_ of_ s = { put = (fun v acc -> s.put (of_ v) acc); take = (fun cur -> to_ (s.take cur)) }

(** Change the surface types of a witness by (iso)morphisms — how library
    types like [Qdint.t] wrap a raw qubit list into an abstract register. *)
let iso ~(bto : 'b1 -> 'b2) ~(bof : 'b2 -> 'b1) ~(qto : 'q1 -> 'q2)
    ~(qof : 'q2 -> 'q1) ~(cto : 'c1 -> 'c2) ~(cof : 'c2 -> 'c1)
    (w : ('b1, 'q1, 'c1) t) : ('b2, 'q2, 'c2) t =
  {
    tys = w.tys;
    qside = map_side qto qof w.qside;
    cside = map_side cto cof w.cside;
    bside = map_side bto bof w.bside;
  }

let triple a b c =
  let to3 (x, (y, z)) = (x, y, z) and of3 (x, y, z) = (x, (y, z)) in
  iso ~bto:to3 ~bof:of3 ~qto:to3 ~qof:of3 ~cto:to3 ~cof:of3 (pair a (pair b c))

let quad a b c d =
  let to4 ((x, y), (z, u)) = (x, y, z, u) and of4 (x, y, z, u) = ((x, y), (z, u)) in
  iso ~bto:to4 ~bof:of4 ~qto:to4 ~qof:of4 ~cto:to4 ~cof:of4 (pair (pair a b) (pair c d))

(* One element of a list or array: a failed take reports too few leaves
   when fewer than [k] were left. *)
let element k s cur =
  let start = cur.rest in
  match s.take cur with
  | x -> x
  | exception e -> if has k start then raise e else not_enough ()

let check_length len n =
  if len <> n then mismatch (Fmt.str "list length %d, expected %d" len n)

(* Elements are put last first, and an error is reported for the first
   element that has one. *)
let rec put_list put l acc =
  match l with
  | [] -> acc
  | x :: tl -> (
      match put_list put tl acc with
      | acc -> put x acc
      | exception e ->
          ignore (put x []);
          raise e)

let list_side n k s =
  {
    put =
      (fun l acc ->
        check_length (List.length l) n;
        put_list s.put l acc);
    take = (fun cur -> List.init n (fun _ -> element k s cur));
  }

let array_side n k s =
  let rec put_from a i acc =
    if i = n then acc
    else
      match put_from a (i + 1) acc with
      | acc -> s.put a.(i) acc
      | exception e ->
          ignore (s.put a.(i) []);
          raise e
  in
  {
    put =
      (fun a acc ->
        check_length (Array.length a) n;
        put_from a 0 acc);
    take = (fun cur -> Array.init n (fun _ -> element k s cur));
  }

(** [list_of n w]: lists of exactly [n] elements of shape [w]. The length
    is a generation-time parameter, not an input. *)
let list_of n (w : ('b, 'q, 'c) t) : ('b list, 'q list, 'c list) t =
  let k = size w in
  {
    tys = List.concat (List.init n (fun _ -> w.tys));
    qside = list_side n k w.qside;
    cside = list_side n k w.cside;
    bside = list_side n k w.bside;
  }

(** [array_of n w]: arrays of exactly [n] elements of shape [w]. *)
let array_of n (w : ('b, 'q, 'c) t) : ('b array, 'q array, 'c array) t =
  let k = size w in
  {
    tys = List.concat (List.init n (fun _ -> w.tys));
    qside = array_side n k w.qside;
    cside = array_side n k w.cside;
    bside = array_side n k w.bside;
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
    (qleaves w q)
