(** In-place statevector kernels.

    The hot loops of the dense simulator, specialised per gate class
    ({!Quipper.Gate.fast_class}): X/CNOT/Toffoli and swap are index
    swaps, the diagonal family (Z, S, T, R/Ph, Rz, exp(-i%Z), controlled
    phase) is a phase multiply, and only H and W pay a butterfly.

    Every kernel writes the same floating-point results, bit for bit,
    as the generic 2x2/4x4 matrix path of the seed engine (kept in
    {!Reference}): term orderings mirror the matrix inner products with
    the known-zero products dropped, which never changes a non-zero
    result. Pure moves are multiplied by [1.0] — the identity on every
    IEEE value including -0.0, infinities and denormals — which forces
    the moved floats into arithmetic context so the whole chain unboxes
    without flambda (a bare array-to-array move boxes two words per
    float and runs ~4x slower). The differential and property tests
    rely on the bit-exactness.

    Iteration is over the {e control subspace}: a gate's target bits and
    quantum-control bits (its [fixed] bits) are deleted from the index,
    and the kernel walks the [size lsr popcount fixed] compressed
    indices that remain. Each compressed index expands to the base of
    one group — zeros at the fixed bits, then the controls' wanted
    values OR-ed in — so a gate with [c] controls visits only the
    [2^-c] share of the state its controls select, and no index is ever
    tested against a mask. The compressed space decomposes into maximal
    runs of contiguous full indices (the free bits below the lowest
    fixed bit), so the inner loops are sequential array sweeps; a run's
    successor base is one carry past the fixed bits, and only a chunk's
    first base pays a full bit-by-bit expansion. Loops use
    [Array.unsafe_*] (indices are in range by construction, and callers
    guarantee [size <= Array.length re]). Two more non-flambda rules
    shape the code: loop bodies are top-level functions (free variables
    of an inline closure are re-fetched through the environment inside
    the loop; function parameters live in registers), and [min]/[max]
    never appear in a hot loop (unspecialised they are the polymorphic
    comparison, an out-of-line call).

    Kernels operate on the first [size] elements of the (re, im) pair of
    unboxed float arrays; the arrays may be longer (capacity-managed by
    {!Statevector}). When a call touches at least {!threshold}
    amplitudes, elementwise kernels split their compressed index space
    into [num_domains] contiguous chunks, run on {!Pool} — a
    process-wide pool, capped at the core count, with the caller taking
    part. Chunking is deterministic and elementwise, so results depend
    on neither the domain count nor the number of live workers;
    reductions that feed sampling (measurement probabilities) are
    sequential by design — ordered float summation, and hence every
    sampled outcome, is identical on any machine. *)

let env name parse =
  match Sys.getenv_opt name with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
      match parse (String.trim s) with
      | Ok v -> Some v
      | Error why -> Quipper.Errors.invalidf "%s=%S: %s" name s why)

let positive_int s =
  match int_of_string_opt s with
  | Some v when v > 0 -> Ok v
  | _ -> Error "expected a positive integer"

let num_domains =
  ref
    (match env "QUIPPER_DOMAINS" positive_int with
    | Some d -> d
    | None -> max 1 (Domain.recommended_domain_count ()))

let threshold =
  ref
    (match env "QUIPPER_PAR_THRESHOLD" positive_int with
    | Some t -> t
    | None -> 1 lsl 19)

(** [par_range ~touch n f] runs [f lo hi] over [num_domains] contiguous
    chunks of [0, n) (the last takes the remainder) on the pool, when
    the call touches at least the threshold's worth of amplitudes —
    [n * touch], where each index touches [touch] of them. [f] must
    touch disjoint state per index. *)
let par_range ?(touch = 1) n (f : int -> int -> unit) =
  let d = !num_domains in
  if d <= 1 || n * touch < !threshold then f 0 n
  else
    let chunk = n / d in
    Pool.run ~domains:d d (fun k ->
        f (k * chunk) (if k = d - 1 then n else (k + 1) * chunk))

(* Expand a compressed index [j] (over the subspace where the target bit
   is 0) to the full index: insert a 0 bit at position [p], where
   [lowmask = (1 lsl p) - 1]. *)
let[@inline] expand j lowmask =
  ((j land lnot lowmask) lsl 1) lor (j land lowmask)

(* ------------------------------------------------------------------ *)
(* The control subspace                                                *)

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* Compressed indices of a gate whose [fixed] bits are deleted. *)
let subspace size fixed = size lsr popcount fixed

(* Full index (fixed bits zero) of compressed index [j]: insert a 0 at
   each fixed bit, lowest first — each insertion shifts only the bits at
   or above its own position, so the ascending order never disturbs an
   earlier one. *)
let deposit j fixed =
  let x = ref j and f = ref fixed in
  while !f <> 0 do
    let low = (!f land (- !f)) - 1 in
    x := expand !x low;
    f := !f land (!f - 1)
  done;
  !x

(* The free bits below the lowest fixed bit: the low bits of a run, in
   which compressed and full index agree. With nothing fixed the whole
   space is one run (the mask stays clear of overflow). *)
let run_mask fixed =
  if fixed = 0 then max_int lsr 1 else (fixed land (- fixed)) - 1

(* The next full index with the fixed bits zero after [i]: a carry that
   skips over the fixed bits. *)
let[@inline] next i fixed = ((i lor fixed) + 1) land lnot fixed

(* Run [body lowmask x lo hi] over the compressed space of a gate with
   [fixed] bits, chunked by {!par_range}; [x] is the full index of [lo].
   The bodies receive the run mask and their first index as arguments,
   so their loops make no calls: a call would spill every live value,
   and the loop would reload them from the stack at each iteration. *)
let sweep ?touch size fixed body =
  let lowmask = run_mask fixed in
  par_range ?touch (subspace size fixed) (fun lo hi ->
      body lowmask (deposit lo fixed) lo hi)

(* ------------------------------------------------------------------ *)
(* Kernel bodies. Each walks the compressed indices [lo, hi) run by run:
   [x] is the current run's first full index with the fixed bits zero,
   and the group bases [x lor cwant .. + run length - 1] are contiguous.
   [cwant] is the controls' wanted bits (plus, for the set-half
   multiply, the target bit). *)

(* Exchange each pair (i0, i0 lxor flip), i0 a group base: X (flip = the
   target bit) and swap (the |10> base, flip = both bits). *)
let kexchange ~re ~im ~flip ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lxor flip in
      let xr = Array.unsafe_get re i0 *. 1.0
      and xi = Array.unsafe_get im i0 *. 1.0 in
      Array.unsafe_set re i0 (Array.unsafe_get re i1 *. 1.0);
      Array.unsafe_set im i0 (Array.unsafe_get im i1 *. 1.0);
      Array.unsafe_set re i1 xr;
      Array.unsafe_set im i1 xi
    done;
    x := next fin fixed;
    j := run_end
  done

(** X / CNOT / Toffoli: swap each pair. *)
let kx ~re ~im ~size ~bit ~cmask ~cwant =
  let fixed = bit lor cmask in
  sweep ~touch:2 size fixed (kexchange ~re ~im ~flip:bit ~fixed ~cwant)

(** swap (with any controls): exchange amplitudes across the bit pair. *)
let kswap ~re ~im ~size ~ba ~bb ~cmask ~cwant =
  let fixed = ba lor bb lor cmask in
  sweep ~touch:2 size fixed
    (kexchange ~re ~im ~flip:(ba lxor bb) ~fixed ~cwant:(cwant lor ba))

let ky_body ~re ~im ~bit ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let xr = Array.unsafe_get re i0 *. 1.0
      and xi = Array.unsafe_get im i0 in
      Array.unsafe_set re i0 (Array.unsafe_get im i1 *. 1.0);
      Array.unsafe_set im i0 (-.Array.unsafe_get re i1);
      Array.unsafe_set re i1 (-.xi);
      Array.unsafe_set im i1 xr
    done;
    x := next fin fixed;
    j := run_end
  done

(** Y: amp0' = -i * amp1, amp1' = i * amp0. *)
let ky ~re ~im ~size ~bit ~cmask ~cwant =
  let fixed = bit lor cmask in
  sweep ~touch:2 size fixed (ky_body ~re ~im ~bit ~fixed ~cwant)

(* The butterfly (x, y) -> (r x + r y, r x - r y) on each pair
   (i0, i0 lxor flip), i0 a group base: H (flip = the target bit) and W
   (the |01> base, flip = both bits). *)
let kbutterfly ~re ~im ~flip ~r ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lxor flip in
      let xr = Array.unsafe_get re i0 and xi = Array.unsafe_get im i0 in
      let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
      Array.unsafe_set re i0 ((r *. xr) +. (r *. yr));
      Array.unsafe_set im i0 ((r *. xi) +. (r *. yi));
      Array.unsafe_set re i1 ((r *. xr) -. (r *. yr));
      Array.unsafe_set im i1 ((r *. xi) -. (r *. yi))
    done;
    x := next fin fixed;
    j := run_end
  done

(** H: the butterfly with r = 1/sqrt 2. Term order mirrors the generic
    path's inner product exactly. *)
let kh ~re ~im ~size ~bit ~cmask ~cwant =
  let fixed = bit lor cmask in
  sweep ~touch:2 size fixed
    (kbutterfly ~re ~im ~flip:bit ~r:(1.0 /. sqrt 2.0) ~fixed ~cwant)

(** W: H on the odd-parity subspace span(|01>, |10>), identity on |00>
    and |11>. [ba] is the first wire's (high) bit. *)
let kw ~re ~im ~size ~ba ~bb ~cmask ~cwant =
  let fixed = ba lor bb lor cmask in
  sweep ~touch:2 size fixed
    (kbutterfly ~re ~im ~flip:(ba lxor bb) ~r:(1.0 /. sqrt 2.0) ~fixed
       ~cwant:(cwant lor bb))

(* Multiply every selected index by (pr, pi): the set half of a
   diagonal with d0 = 1 ([cwant] includes the target bit), and the
   controlled global phase. *)
let kmul ~re ~im ~pr ~pi ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i = base to fin do
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      Array.unsafe_set re i ((pr *. xr) -. (pi *. xi));
      Array.unsafe_set im i ((pr *. xi) +. (pi *. xr))
    done;
    x := next fin fixed;
    j := run_end
  done

let kdiag_body ~re ~im ~bit ~fixed ~cwant ~d0_re ~d0_im ~d1_re ~d1_im lowmask
    x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let xr = Array.unsafe_get re i0 and xi = Array.unsafe_get im i0 in
      let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
      Array.unsafe_set re i0 ((d0_re *. xr) -. (d0_im *. xi));
      Array.unsafe_set im i0 ((d0_re *. xi) +. (d0_im *. xr));
      Array.unsafe_set re i1 ((d1_re *. yr) -. (d1_im *. yi));
      Array.unsafe_set im i1 ((d1_re *. yi) +. (d1_im *. yr))
    done;
    x := next fin fixed;
    j := run_end
  done

(** Diagonal diag(d0, d1): Z, S, T, R/Ph, Rz, exp(-i%Z) and the
    controlled-phase family. With d0 = 1 only the bit-set half is
    multiplied. *)
let kdiag ~re ~im ~size ~bit ~cmask ~cwant ~d0_re ~d0_im ~d1_re ~d1_im =
  let fixed = bit lor cmask in
  if d0_re = 1.0 && d0_im = 0.0 then
    sweep size fixed
      (kmul ~re ~im ~pr:d1_re ~pi:d1_im ~fixed ~cwant:(cwant lor bit))
  else
    sweep ~touch:2 size fixed
      (kdiag_body ~re ~im ~bit ~fixed ~cwant ~d0_re ~d0_im ~d1_re ~d1_im)

(** Global phase e^{i angle} on every index satisfying the controls. *)
let kphase ~re ~im ~size ~cmask ~cwant ~angle =
  sweep size cmask
    (kmul ~re ~im ~pr:(cos angle) ~pi:(sin angle) ~fixed:cmask ~cwant)

(* ------------------------------------------------------------------ *)
(* Sequential reductions                                               *)

(** Ascending-order sum of |amp|^2 over the half where the target [bit]
    is set ([want = true]) or clear: the same additions in the same
    order as a full ascending scan that skips the other half — the
    reductions the seed engine performs, at half the iterations. Always
    sequential: summation order must never depend on the domain count
    (sampled outcomes hang off these sums). The accumulator lives in a
    1-element float array (a [float ref] would box on every store) and
    round-trips through it once per 4 elements, not once per element;
    the additions themselves stay strictly in seed order. *)
let sum_norm2_half ~re ~im ~size ~bit ~want =
  let lowmask = bit - 1 in
  let half = size / 2 in
  let acc = [| 0.0 |] in
  let j = ref 0 in
  while !j < half do
    let run_end = let e = (!j lor lowmask) + 1 in if e < half then e else half in
    let base =
      let b = expand !j lowmask in
      if want then b lor bit else b
    in
    let len = run_end - !j in
    let k = ref 0 in
    while !k + 4 <= len do
      let i = base + !k in
      let a = Array.unsafe_get acc 0 in
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      let a = a +. ((xr *. xr) +. (xi *. xi)) in
      let xr = Array.unsafe_get re (i + 1) and xi = Array.unsafe_get im (i + 1) in
      let a = a +. ((xr *. xr) +. (xi *. xi)) in
      let xr = Array.unsafe_get re (i + 2) and xi = Array.unsafe_get im (i + 2) in
      let a = a +. ((xr *. xr) +. (xi *. xi)) in
      let xr = Array.unsafe_get re (i + 3) and xi = Array.unsafe_get im (i + 3) in
      let a = a +. ((xr *. xr) +. (xi *. xi)) in
      Array.unsafe_set acc 0 a;
      k := !k + 4
    done;
    while !k < len do
      let i = base + !k in
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      Array.unsafe_set acc 0
        (Array.unsafe_get acc 0 +. ((xr *. xr) +. (xi *. xi)));
      incr k
    done;
    j := run_end
  done;
  acc.(0)

(** Same reduction with four independent accumulator lanes, combined at
    the end. NOT the seed's summation order — only for sums whose value
    feeds a coarse comparison (the Term assertion's 1e-9 threshold) and
    never reaches amplitudes or sampling: reordering moves the result
    by ulps, which a threshold orders of magnitude from both legitimate
    outcomes cannot see. The independent lanes break the serial
    float-add dependency chain that bounds the ordered version. *)
let sum_norm2_half_unord ~re ~im ~size ~bit ~want =
  let lowmask = bit - 1 in
  let half = size / 2 in
  let acc = [| 0.0; 0.0; 0.0; 0.0 |] in
  let j = ref 0 in
  while !j < half do
    let run_end = let e = (!j lor lowmask) + 1 in if e < half then e else half in
    let base =
      let b = expand !j lowmask in
      if want then b lor bit else b
    in
    let len = run_end - !j in
    let k = ref 0 in
    while !k + 4 <= len do
      let i = base + !k in
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      Array.unsafe_set acc 0
        (Array.unsafe_get acc 0 +. ((xr *. xr) +. (xi *. xi)));
      let xr = Array.unsafe_get re (i + 1) and xi = Array.unsafe_get im (i + 1) in
      Array.unsafe_set acc 1
        (Array.unsafe_get acc 1 +. ((xr *. xr) +. (xi *. xi)));
      let xr = Array.unsafe_get re (i + 2) and xi = Array.unsafe_get im (i + 2) in
      Array.unsafe_set acc 2
        (Array.unsafe_get acc 2 +. ((xr *. xr) +. (xi *. xi)));
      let xr = Array.unsafe_get re (i + 3) and xi = Array.unsafe_get im (i + 3) in
      Array.unsafe_set acc 3
        (Array.unsafe_get acc 3 +. ((xr *. xr) +. (xi *. xi)));
      k := !k + 4
    done;
    while !k < len do
      let i = base + !k in
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      Array.unsafe_set acc 0
        (Array.unsafe_get acc 0 +. ((xr *. xr) +. (xi *. xi)));
      incr k
    done;
    j := run_end
  done;
  acc.(0) +. acc.(1) +. acc.(2) +. acc.(3)

(* ------------------------------------------------------------------ *)
(* Generic fallback (unrecognised unitaries)                           *)

let k1_body ~re ~im ~bit ~fixed ~cwant ~a_re ~a_im ~b_re ~b_im ~c_re ~c_im
    ~d_re ~d_im lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let x_re = Array.unsafe_get re i0 and x_im = Array.unsafe_get im i0 in
      let y_re = Array.unsafe_get re i1 and y_im = Array.unsafe_get im i1 in
      Array.unsafe_set re i0
        ((a_re *. x_re) -. (a_im *. x_im) +. (b_re *. y_re) -. (b_im *. y_im));
      Array.unsafe_set im i0
        ((a_re *. x_im) +. (a_im *. x_re) +. (b_re *. y_im) +. (b_im *. y_re));
      Array.unsafe_set re i1
        ((c_re *. x_re) -. (c_im *. x_im) +. (d_re *. y_re) -. (d_im *. y_im));
      Array.unsafe_set im i1
        ((c_re *. x_im) +. (c_im *. x_re) +. (d_re *. y_im) +. (d_im *. y_re))
    done;
    x := next fin fixed;
    j := run_end
  done

(** Generic single-qubit matrix application — the fallback for gates
    without a specialised kernel (V, Rx, user matrices). *)
let k1_generic ~re ~im ~size ~bit ~cmask ~cwant (m : Quipper_math.Mat2.t) =
  let open Quipper_math in
  let a = Mat2.get m 0 0 and b = Mat2.get m 0 1 in
  let c = Mat2.get m 1 0 and d = Mat2.get m 1 1 in
  let fixed = bit lor cmask in
  sweep ~touch:2 size fixed
    (k1_body ~re ~im ~bit ~fixed ~cwant ~a_re:(Cplx.re a) ~a_im:(Cplx.im a)
       ~b_re:(Cplx.re b) ~b_im:(Cplx.im b) ~c_re:(Cplx.re c) ~c_im:(Cplx.im c)
       ~d_re:(Cplx.re d) ~d_im:(Cplx.im d))

(* ------------------------------------------------------------------ *)
(* Fused k-qubit kernels (gate fusion, {!Fuse})                        *)

(* The fused bodies walk the same control subspace, with all [k]
   support bits and the controls fixed; [offs.(l)] is the full-index
   offset of matrix basis index [l] within a group. *)

let kq_body ~re ~im ~offs ~mre ~mim ~dim ~fixed ~cwant lowmask x0 lo hi =
  (* per-chunk scratch: gather/apply/scatter buffers, allocated once per
     domain, not per index *)
  let vr = Array.make dim 0.0 and vi = Array.make dim 0.0 in
  let acc = Array.make 2 0.0 in
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let first = !x lor cwant in
    let fin = first + (run_end - !j) - 1 in
    for base = first to fin do
      for l = 0 to dim - 1 do
        let i = base lor Array.unsafe_get offs l in
        Array.unsafe_set vr l (Array.unsafe_get re i *. 1.0);
        Array.unsafe_set vi l (Array.unsafe_get im i *. 1.0)
      done;
      for r = 0 to dim - 1 do
        let row = r * dim in
        Array.unsafe_set acc 0 0.0;
        Array.unsafe_set acc 1 0.0;
        for c = 0 to dim - 1 do
          let er = Array.unsafe_get mre (row + c)
          and ei = Array.unsafe_get mim (row + c) in
          let xr = Array.unsafe_get vr c and xi = Array.unsafe_get vi c in
          Array.unsafe_set acc 0
            (Array.unsafe_get acc 0 +. ((er *. xr) -. (ei *. xi)));
          Array.unsafe_set acc 1
            (Array.unsafe_get acc 1 +. ((er *. xi) +. (ei *. xr)))
        done;
        let i = base lor Array.unsafe_get offs r in
        Array.unsafe_set re i (Array.unsafe_get acc 0 *. 1.0);
        Array.unsafe_set im i (Array.unsafe_get acc 1 *. 1.0)
      done
    done;
    x := next fin fixed;
    j := run_end
  done

(* Unrolled 1-wire body: the 2x2 matrix lives in 8 scalar parameters,
   the quadruple of amplitude components in registers — no scratch
   arrays, no inner loops. Term order matches the generic body's
   accumulation (products grouped (er xr - ei xi), summed left to
   right), so results agree to the same reassociation the fusion tests
   budget. *)
let kq_body1 ~re ~im ~b0 ~m00r ~m00i ~m01r ~m01i ~m10r ~m10i ~m11r ~m11i
    ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor b0 in
      let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
      let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
      Array.unsafe_set re i0
        (((m00r *. x0r) -. (m00i *. x0i)) +. ((m01r *. x1r) -. (m01i *. x1i)));
      Array.unsafe_set im i0
        (((m00r *. x0i) +. (m00i *. x0r)) +. ((m01r *. x1i) +. (m01i *. x1r)));
      Array.unsafe_set re i1
        (((m10r *. x0r) -. (m10i *. x0i)) +. ((m11r *. x1r) -. (m11i *. x1i)));
      Array.unsafe_set im i1
        (((m10r *. x0i) +. (m10i *. x0r)) +. ((m11r *. x1i) +. (m11i *. x1r)))
    done;
    x := next fin fixed;
    j := run_end
  done

(* Unrolled 2-wire body: gather the 4 amplitudes into locals, compute
   each output row as an explicit 4-term complex dot product, write
   back. The 4x4 matrix is read through [unsafe_get] — 32 entries stay
   cache-hot across the whole sweep. *)
let kq_body2 ~re ~im ~o1 ~o2 ~o3 ~mre ~mim ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = !x lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor o1 and i2 = i0 lor o2 and i3 = i0 lor o3 in
      let x0r = Array.unsafe_get re i0 and x0i = Array.unsafe_get im i0 in
      let x1r = Array.unsafe_get re i1 and x1i = Array.unsafe_get im i1 in
      let x2r = Array.unsafe_get re i2 and x2i = Array.unsafe_get im i2 in
      let x3r = Array.unsafe_get re i3 and x3i = Array.unsafe_get im i3 in
      let row = 0 in
      let e0r = Array.unsafe_get mre (row + 0) and e0i = Array.unsafe_get mim (row + 0) in
      let e1r = Array.unsafe_get mre (row + 1) and e1i = Array.unsafe_get mim (row + 1) in
      let e2r = Array.unsafe_get mre (row + 2) and e2i = Array.unsafe_get mim (row + 2) in
      let e3r = Array.unsafe_get mre (row + 3) and e3i = Array.unsafe_get mim (row + 3) in
      let y0r =
        ((e0r *. x0r) -. (e0i *. x0i)) +. ((e1r *. x1r) -. (e1i *. x1i))
        +. ((e2r *. x2r) -. (e2i *. x2i)) +. ((e3r *. x3r) -. (e3i *. x3i))
      and y0i =
        ((e0r *. x0i) +. (e0i *. x0r)) +. ((e1r *. x1i) +. (e1i *. x1r))
        +. ((e2r *. x2i) +. (e2i *. x2r)) +. ((e3r *. x3i) +. (e3i *. x3r))
      in
      let row = 4 in
      let e0r = Array.unsafe_get mre (row + 0) and e0i = Array.unsafe_get mim (row + 0) in
      let e1r = Array.unsafe_get mre (row + 1) and e1i = Array.unsafe_get mim (row + 1) in
      let e2r = Array.unsafe_get mre (row + 2) and e2i = Array.unsafe_get mim (row + 2) in
      let e3r = Array.unsafe_get mre (row + 3) and e3i = Array.unsafe_get mim (row + 3) in
      let y1r =
        ((e0r *. x0r) -. (e0i *. x0i)) +. ((e1r *. x1r) -. (e1i *. x1i))
        +. ((e2r *. x2r) -. (e2i *. x2i)) +. ((e3r *. x3r) -. (e3i *. x3i))
      and y1i =
        ((e0r *. x0i) +. (e0i *. x0r)) +. ((e1r *. x1i) +. (e1i *. x1r))
        +. ((e2r *. x2i) +. (e2i *. x2r)) +. ((e3r *. x3i) +. (e3i *. x3r))
      in
      let row = 8 in
      let e0r = Array.unsafe_get mre (row + 0) and e0i = Array.unsafe_get mim (row + 0) in
      let e1r = Array.unsafe_get mre (row + 1) and e1i = Array.unsafe_get mim (row + 1) in
      let e2r = Array.unsafe_get mre (row + 2) and e2i = Array.unsafe_get mim (row + 2) in
      let e3r = Array.unsafe_get mre (row + 3) and e3i = Array.unsafe_get mim (row + 3) in
      let y2r =
        ((e0r *. x0r) -. (e0i *. x0i)) +. ((e1r *. x1r) -. (e1i *. x1i))
        +. ((e2r *. x2r) -. (e2i *. x2i)) +. ((e3r *. x3r) -. (e3i *. x3i))
      and y2i =
        ((e0r *. x0i) +. (e0i *. x0r)) +. ((e1r *. x1i) +. (e1i *. x1r))
        +. ((e2r *. x2i) +. (e2i *. x2r)) +. ((e3r *. x3i) +. (e3i *. x3r))
      in
      let row = 12 in
      let e0r = Array.unsafe_get mre (row + 0) and e0i = Array.unsafe_get mim (row + 0) in
      let e1r = Array.unsafe_get mre (row + 1) and e1i = Array.unsafe_get mim (row + 1) in
      let e2r = Array.unsafe_get mre (row + 2) and e2i = Array.unsafe_get mim (row + 2) in
      let e3r = Array.unsafe_get mre (row + 3) and e3i = Array.unsafe_get mim (row + 3) in
      let y3r =
        ((e0r *. x0r) -. (e0i *. x0i)) +. ((e1r *. x1r) -. (e1i *. x1i))
        +. ((e2r *. x2r) -. (e2i *. x2i)) +. ((e3r *. x3r) -. (e3i *. x3i))
      and y3i =
        ((e0r *. x0i) +. (e0i *. x0r)) +. ((e1r *. x1i) +. (e1i *. x1r))
        +. ((e2r *. x2i) +. (e2i *. x2r)) +. ((e3r *. x3i) +. (e3i *. x3r))
      in
      Array.unsafe_set re i0 y0r;
      Array.unsafe_set im i0 y0i;
      Array.unsafe_set re i1 y1r;
      Array.unsafe_set im i1 y1i;
      Array.unsafe_set re i2 y2r;
      Array.unsafe_set im i2 y2i;
      Array.unsafe_set re i3 y3r;
      Array.unsafe_set im i3 y3i
    done;
    x := next fin fixed;
    j := run_end
  done

(* Support bits -> (fixed mask, offset of each basis index). Bit [i] of
   the matrix's basis index is [bits.(i)]. *)
let support (bits : int array) =
  let k = Array.length bits in
  let offs =
    Array.init (1 lsl k) (fun l ->
        let o = ref 0 in
        for b = 0 to k - 1 do
          if l land (1 lsl b) <> 0 then o := !o lor bits.(b)
        done;
        !o)
  in
  (Array.fold_left ( lor ) 0 bits, offs)

(** Dense k-qubit matrix application: gather the [2^k] amplitudes of
    each group, multiply by the row-major [2^k x 2^k] matrix (mre, mim),
    scatter back. Bit [i] of the matrix's basis index is [bits.(i)] (in
    any order). The apply loop reads only the gathered scratch, so each
    output row can be written as soon as it is computed. Controls are a
    (mask, want) pair over full-index bits, disjoint from [bits]; like
    the single-gate kernels, only the groups they select are visited.
    The common narrow blocks (k = 1, 2) run fully unrolled bodies with
    no scratch arrays — they are what makes small dense fusions cheaper
    than replaying their gates. *)
let kq_generic ~re ~im ~size ~(bits : int array) ~cmask ~cwant ~mre ~mim =
  let k = Array.length bits in
  let dim = 1 lsl k in
  let sup, offs = support bits in
  let fixed = sup lor cmask in
  if k = 1 then
    sweep ~touch:dim size fixed
      (kq_body1 ~re ~im ~b0:bits.(0) ~m00r:mre.(0) ~m00i:mim.(0) ~m01r:mre.(1)
         ~m01i:mim.(1) ~m10r:mre.(2) ~m10i:mim.(2) ~m11r:mre.(3) ~m11i:mim.(3)
         ~fixed ~cwant)
  else if k = 2 then
    sweep ~touch:dim size fixed
      (kq_body2 ~re ~im ~o1:offs.(1) ~o2:offs.(2) ~o3:offs.(3) ~mre ~mim ~fixed
         ~cwant)
  else
    sweep ~touch:dim size fixed
      (kq_body ~re ~im ~offs ~mre ~mim ~dim ~fixed ~cwant)

let kq_diag_body ~re ~im ~offs ~dre ~di ~dim ~fixed ~cwant lowmask x0 lo hi =
  let j = ref lo and x = ref x0 in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let first = !x lor cwant in
    let fin = first + (run_end - !j) - 1 in
    for base = first to fin do
      for l = 0 to dim - 1 do
        let i = base lor Array.unsafe_get offs l in
        let dr = Array.unsafe_get dre l and dm = Array.unsafe_get di l in
        let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
        Array.unsafe_set re i ((dr *. xr) -. (dm *. xi));
        Array.unsafe_set im i ((dr *. xi) +. (dm *. xr))
      done
    done;
    x := next fin fixed;
    j := run_end
  done

(** Fused k-qubit diagonal: one sweep multiplying each amplitude by the
    diagonal entry selected by its [k] support bits — the collapsed form
    of a whole run of diagonal gates. Bit [i] of the [2^k]-entry table
    (dre, di) is [bits.(i)]. Iteration is by group base (support and
    control bits fixed) with a precomputed offset per table entry, so
    the per-amplitude work is one table index, not a [k]-step bit
    extraction. *)
let kq_diag ~re ~im ~size ~(bits : int array) ~cmask ~cwant ~dre ~di =
  let dim = 1 lsl Array.length bits in
  let sup, offs = support bits in
  let fixed = sup lor cmask in
  sweep ~touch:dim size fixed
    (kq_diag_body ~re ~im ~offs ~dre ~di ~dim ~fixed ~cwant)
