(** Arbitrary-precision naturals: little-endian limbs in base 10^9.

    Base 10^9 keeps every limb-by-limb product plus carry strictly under
    2^62, so all arithmetic stays in native ints, and decimal printing
    is one [%09d] per limb. The representation is canonical: no trailing
    zero limbs, and zero is the empty array — which makes structural
    [compare] on the arrays usable after a length check. *)

type t = int array (* little-endian, base [limb_base], no trailing zeros *)

let limb_base = 1_000_000_000

let zero : t = [||]
let one : t = [| 1 |]

let is_zero (t : t) = Array.length t = 0

let of_int n : t =
  if n < 0 then invalid_arg "Wide.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs acc n = if n = 0 then acc else limbs (n mod limb_base :: acc) (n / limb_base) in
    let l = limbs [] n in
    Array.of_list (List.rev l)
  end

let to_int_opt (t : t) : int option =
  (* fold from the most significant limb, watching for overflow *)
  let exception Too_big in
  try
    Some
      (Array.fold_right
         (fun limb acc ->
           if acc > (max_int - limb) / limb_base then raise Too_big
           else (acc * limb_base) + limb)
         t 0)
  with Too_big -> None

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else if la = 1 then Int.compare a.(0) b.(0)
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0
let equal_int t n = n >= 0 && equal t (of_int n)
let max_ a b = if compare a b >= 0 then a else b

let normalize (a : int array) : t =
  let l = ref (Array.length a) in
  while !l > 0 && a.(!l - 1) = 0 do
    decr l
  done;
  if !l = Array.length a then a else Array.sub a 0 !l

let add_limbs (a : t) (b : t) : t =
  let a, b = if Array.length a >= Array.length b then (a, b) else (b, a) in
  let la = Array.length a and lb = Array.length b in
  (* [a]'s top limb is non-zero, so the sum needs no normalizing *)
  let r = Array.make la 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let s = a.(i) + (if i < lb then b.(i) else 0) + !carry in
    if s >= limb_base then begin
      r.(i) <- s - limb_base;
      carry := 1
    end
    else begin
      r.(i) <- s;
      carry := 0
    end
  done;
  if !carry = 0 then r else Array.append r [| 1 |]

let add (a : t) (b : t) : t =
  match (a, b) with
  | [||], c | c, [||] -> c
  | [| x |], [| y |] ->
      (* the common case of resource accumulators: one limb each *)
      let s = x + y in
      if s < limb_base then [| s |] else [| s - limb_base; 1 |]
  | _ -> add_limbs a b

let succ t = add t one

let mul (a : t) (b : t) : t =
  if is_zero a || is_zero b then zero
  else begin
    let la = Array.length a and lb = Array.length b in
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let v = r.(i + j) + (a.(i) * b.(j)) + !carry in
        r.(i + j) <- v mod limb_base;
        carry := v / limb_base
      done;
      (* the final carry can exceed one limb only transiently; propagate *)
      let k = ref (i + lb) in
      while !carry > 0 do
        let v = r.(!k) + !carry in
        r.(!k) <- v mod limb_base;
        carry := v / limb_base;
        incr k
      done
    done;
    normalize r
  end

let mul_int (t : t) n : t =
  if n < 0 then invalid_arg "Wide.mul_int: negative"
  else mul t (of_int n)

let to_string (t : t) =
  let l = Array.length t in
  if l = 0 then "0"
  else begin
    let b = Buffer.create (l * 9) in
    Buffer.add_string b (string_of_int t.(l - 1));
    for i = l - 2 downto 0 do
      Buffer.add_string b (Printf.sprintf "%09d" t.(i))
    done;
    Buffer.contents b
  end

let pp ppf t = Format.pp_print_string ppf (to_string t)
