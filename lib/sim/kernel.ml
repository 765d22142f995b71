(** In-place statevector kernels.

    The hot loops of the dense simulator, specialised per gate class
    ({!Quipper.Gate.fast_class}): X/CNOT/Toffoli are index swaps, the
    diagonal family (Z, S, T, R/Ph, Rz, exp(-i%Z), controlled phase) is
    a phase multiply, and only H and W pay a butterfly. Controls are
    folded into one precomputed (mask, want) pair per gate —
    uncontrolled gates run a check-free loop, a single control is folded
    into the iteration itself (quarter space, no per-index test), and
    only multi-control gates check the mask once per index.

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

    Iteration is by {e runs}: the compressed index space (target bit
    deleted) decomposes into maximal runs of contiguous full indices, so
    the inner loops are sequential array sweeps with no per-index bit
    surgery, over [Array.unsafe_*] (indices are in range by
    construction: [expand j < size] for [j < size/2], and callers
    guarantee [size <= Array.length re]). Two more non-flambda rules
    shape the code: loop bodies are top-level functions (free variables
    of an inline closure are re-fetched through the environment inside
    the loop; function parameters live in registers), and [min]/[max]
    never appear in a hot loop (unspecialised they are the polymorphic
    comparison, an out-of-line call).

    Kernels operate on the first [size] elements of the (re, im) pair of
    unboxed float arrays; the arrays may be longer (capacity-managed by
    {!Statevector}). Above {!threshold} amplitudes, elementwise kernels
    split their compressed index space into [num_domains] contiguous
    chunks, run on {!Pool} — a process-wide pool, capped at the core
    count, with the caller taking part. Chunking is deterministic and
    elementwise, so results depend on neither the domain count nor the
    number of live workers; reductions that feed sampling
    (measurement probabilities) are sequential by design — ordered float
    summation, and hence every sampled outcome, is identical on any
    machine. *)

(* A positive integer from the environment; anything else (unset, junk,
   zero, negative) falls through to the default. *)
let env_int name =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some v when v > 0 -> Some v
      | _ -> None)

let num_domains =
  ref
    (match env_int "QUIPPER_DOMAINS" with
    | Some d -> d
    | None -> max 1 (Domain.recommended_domain_count ()))

let threshold =
  ref (match env_int "QUIPPER_PAR_THRESHOLD" with Some t -> t | None -> 1 lsl 19)
(** Minimum number of amplitudes before a kernel fans out on the pool;
    bench section N7 measures where the split breaks even. *)

(** [par_range n f] runs [f lo hi] over [num_domains] contiguous chunks
    of [0, n) (the last takes the remainder) on the pool, when [n]
    reaches the threshold. [f] must touch disjoint state per index. *)
let par_range n (f : int -> int -> unit) =
  let d = !num_domains in
  if d <= 1 || n < !threshold then f 0 n
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
(* Pair kernels. Each chunk body walks [lo, hi) of compressed indices
   run by run; within a run the full index is contiguous. The [0]
   suffix marks the uncontrolled body, [1] the single-control body
   (both the target bit and the control bit deleted from the index
   space — the nested [expand] is valid because within a run only the
   bits below the lower deleted bit vary, so the outer insertion point
   never shifts), and [m] the multi-control body with the per-index
   mask check. *)

let kx0 ~re ~im ~bit ~lowmask lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let xr = Array.unsafe_get re i0 *. 1.0
      and xi = Array.unsafe_get im i0 *. 1.0 in
      Array.unsafe_set re i0 (Array.unsafe_get re i1 *. 1.0);
      Array.unsafe_set im i0 (Array.unsafe_get im i1 *. 1.0);
      Array.unsafe_set re i1 xr;
      Array.unsafe_set im i1 xi
    done;
    j := run_end
  done

let kx1 ~re ~im ~bit ~lm ~hm ~cwant lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lm) + 1 in if e < hi then e else hi in
    let base = expand (expand !j lm) hm lor cwant in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let xr = Array.unsafe_get re i0 *. 1.0
      and xi = Array.unsafe_get im i0 *. 1.0 in
      Array.unsafe_set re i0 (Array.unsafe_get re i1 *. 1.0);
      Array.unsafe_set im i0 (Array.unsafe_get im i1 *. 1.0);
      Array.unsafe_set re i1 xr;
      Array.unsafe_set im i1 xi
    done;
    j := run_end
  done

let kxm ~re ~im ~bit ~lowmask ~cmask ~cwant lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    for k = 0 to run_end - !j - 1 do
      let i0 = base + k in
      if i0 land cmask = cwant then begin
        let i1 = i0 lor bit in
        let xr = Array.unsafe_get re i0 *. 1.0
        and xi = Array.unsafe_get im i0 *. 1.0 in
        Array.unsafe_set re i0 (Array.unsafe_get re i1 *. 1.0);
        Array.unsafe_set im i0 (Array.unsafe_get im i1 *. 1.0);
        Array.unsafe_set re i1 xr;
        Array.unsafe_set im i1 xi
      end
    done;
    j := run_end
  done

(** X / CNOT / Toffoli: swap each pair. *)
let kx ~re ~im ~size ~bit ~cmask ~cwant =
  let lowmask = bit - 1 in
  if cmask = 0 then par_range (size / 2) (kx0 ~re ~im ~bit ~lowmask)
  else if cmask land (cmask - 1) = 0 then begin
    let bl = if bit < cmask then bit else cmask in
    let bh = if bit < cmask then cmask else bit in
    par_range (size / 4) (kx1 ~re ~im ~bit ~lm:(bl - 1) ~hm:(bh - 1) ~cwant)
  end
  else par_range (size / 2) (kxm ~re ~im ~bit ~lowmask ~cmask ~cwant)

let ky0 ~re ~im ~bit ~lowmask lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
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
    j := run_end
  done

let kym ~re ~im ~bit ~lowmask ~cmask ~cwant lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    for k = 0 to run_end - !j - 1 do
      let i0 = base + k in
      if i0 land cmask = cwant then begin
        let i1 = i0 lor bit in
        let xr = Array.unsafe_get re i0 *. 1.0
        and xi = Array.unsafe_get im i0 in
        Array.unsafe_set re i0 (Array.unsafe_get im i1 *. 1.0);
        Array.unsafe_set im i0 (-.Array.unsafe_get re i1);
        Array.unsafe_set re i1 (-.xi);
        Array.unsafe_set im i1 xr
      end
    done;
    j := run_end
  done

(** Y: amp0' = -i * amp1, amp1' = i * amp0. *)
let ky ~re ~im ~size ~bit ~cmask ~cwant =
  let lowmask = bit - 1 in
  if cmask = 0 then par_range (size / 2) (ky0 ~re ~im ~bit ~lowmask)
  else par_range (size / 2) (kym ~re ~im ~bit ~lowmask ~cmask ~cwant)

let kh0 ~re ~im ~bit ~lowmask ~r lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    let fin = base + (run_end - !j) - 1 in
    for i0 = base to fin do
      let i1 = i0 lor bit in
      let xr = Array.unsafe_get re i0 and xi = Array.unsafe_get im i0 in
      let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
      Array.unsafe_set re i0 ((r *. xr) +. (r *. yr));
      Array.unsafe_set im i0 ((r *. xi) +. (r *. yi));
      Array.unsafe_set re i1 ((r *. xr) -. (r *. yr));
      Array.unsafe_set im i1 ((r *. xi) -. (r *. yi))
    done;
    j := run_end
  done

let khm ~re ~im ~bit ~lowmask ~r ~cmask ~cwant lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    for k = 0 to run_end - !j - 1 do
      let i0 = base + k in
      if i0 land cmask = cwant then begin
        let i1 = i0 lor bit in
        let xr = Array.unsafe_get re i0 and xi = Array.unsafe_get im i0 in
        let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
        Array.unsafe_set re i0 ((r *. xr) +. (r *. yr));
        Array.unsafe_set im i0 ((r *. xi) +. (r *. yi));
        Array.unsafe_set re i1 ((r *. xr) -. (r *. yr));
        Array.unsafe_set im i1 ((r *. xi) -. (r *. yi))
      end
    done;
    j := run_end
  done

(** H: the butterfly (x, y) -> (r x + r y, r x - r y), r = 1/sqrt 2.
    Term order mirrors the generic path's inner product exactly. *)
let kh ~re ~im ~size ~bit ~cmask ~cwant =
  let r = 1.0 /. sqrt 2.0 in
  let lowmask = bit - 1 in
  if cmask = 0 then par_range (size / 2) (kh0 ~re ~im ~bit ~lowmask ~r)
  else par_range (size / 2) (khm ~re ~im ~bit ~lowmask ~r ~cmask ~cwant)

let kdiag1_0 ~re ~im ~bit ~lowmask ~d1_re ~d1_im lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask lor bit in
    let fin = base + (run_end - !j) - 1 in
    for i1 = base to fin do
      let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
      Array.unsafe_set re i1 ((d1_re *. yr) -. (d1_im *. yi));
      Array.unsafe_set im i1 ((d1_re *. yi) +. (d1_im *. yr))
    done;
    j := run_end
  done

let kdiag1_1 ~re ~im ~bit ~lm ~hm ~cwant ~d1_re ~d1_im lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lm) + 1 in if e < hi then e else hi in
    let base = expand (expand !j lm) hm lor cwant lor bit in
    let fin = base + (run_end - !j) - 1 in
    for i1 = base to fin do
      let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
      Array.unsafe_set re i1 ((d1_re *. yr) -. (d1_im *. yi));
      Array.unsafe_set im i1 ((d1_re *. yi) +. (d1_im *. yr))
    done;
    j := run_end
  done

let kdiag1_m ~re ~im ~bit ~lowmask ~cmask ~cwant ~d1_re ~d1_im lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    (* the target bit is never a control, so checking the mask on [i1]
       is the same as on [i0] *)
    let base = expand !j lowmask lor bit in
    for k = 0 to run_end - !j - 1 do
      let i1 = base + k in
      if i1 land cmask = cwant then begin
        let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
        Array.unsafe_set re i1 ((d1_re *. yr) -. (d1_im *. yi));
        Array.unsafe_set im i1 ((d1_re *. yi) +. (d1_im *. yr))
      end
    done;
    j := run_end
  done

(** diag(d0, d1) with d0 = 1: multiply only the bit-set half. Covers Z,
    S, T, R/Ph and the controlled-phase family. *)
let kdiag1 ~re ~im ~size ~bit ~cmask ~cwant ~d1_re ~d1_im =
  let lowmask = bit - 1 in
  if cmask = 0 then
    par_range (size / 2) (kdiag1_0 ~re ~im ~bit ~lowmask ~d1_re ~d1_im)
  else if cmask land (cmask - 1) = 0 then begin
    let bl = if bit < cmask then bit else cmask in
    let bh = if bit < cmask then cmask else bit in
    par_range (size / 4)
      (kdiag1_1 ~re ~im ~bit ~lm:(bl - 1) ~hm:(bh - 1) ~cwant ~d1_re ~d1_im)
  end
  else
    par_range (size / 2)
      (kdiag1_m ~re ~im ~bit ~lowmask ~cmask ~cwant ~d1_re ~d1_im)

let kdiag_0 ~re ~im ~bit ~lowmask ~d0_re ~d0_im ~d1_re ~d1_im lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
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
    j := run_end
  done

let kdiag_m ~re ~im ~bit ~lowmask ~cmask ~cwant ~d0_re ~d0_im ~d1_re ~d1_im
    lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    for k = 0 to run_end - !j - 1 do
      let i0 = base + k in
      if i0 land cmask = cwant then begin
        let i1 = i0 lor bit in
        let xr = Array.unsafe_get re i0 and xi = Array.unsafe_get im i0 in
        let yr = Array.unsafe_get re i1 and yi = Array.unsafe_get im i1 in
        Array.unsafe_set re i0 ((d0_re *. xr) -. (d0_im *. xi));
        Array.unsafe_set im i0 ((d0_re *. xi) +. (d0_im *. xr));
        Array.unsafe_set re i1 ((d1_re *. yr) -. (d1_im *. yi));
        Array.unsafe_set im i1 ((d1_re *. yi) +. (d1_im *. yr))
      end
    done;
    j := run_end
  done

(** General diagonal diag(d0, d1): Rz and exp(-i%Z). *)
let kdiag ~re ~im ~size ~bit ~cmask ~cwant ~d0_re ~d0_im ~d1_re ~d1_im =
  if d0_re = 1.0 && d0_im = 0.0 then
    kdiag1 ~re ~im ~size ~bit ~cmask ~cwant ~d1_re ~d1_im
  else
    let lowmask = bit - 1 in
    if cmask = 0 then
      par_range (size / 2)
        (kdiag_0 ~re ~im ~bit ~lowmask ~d0_re ~d0_im ~d1_re ~d1_im)
    else
      par_range (size / 2)
        (kdiag_m ~re ~im ~bit ~lowmask ~cmask ~cwant ~d0_re ~d0_im ~d1_re
           ~d1_im)

let kphase_chunk ~re ~im ~cmask ~cwant ~pr ~pi lo hi =
  for i = lo to hi - 1 do
    if i land cmask = cwant then begin
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      Array.unsafe_set re i ((pr *. xr) -. (pi *. xi));
      Array.unsafe_set im i ((pr *. xi) +. (pi *. xr))
    end
  done

(** Global phase e^{i angle} on every index satisfying the controls. *)
let kphase ~re ~im ~size ~cmask ~cwant ~angle =
  let pr = cos angle and pi = sin angle in
  par_range size (kphase_chunk ~re ~im ~cmask ~cwant ~pr ~pi)

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
(* Two-qubit kernels                                                   *)

let kswap_chunk ~re ~im ~ba ~bb ~cmask ~cwant lo hi =
  for i = lo to hi - 1 do
    if i land ba <> 0 && i land bb = 0 && i land cmask = cwant then begin
      let j = i lxor ba lxor bb in
      let xr = Array.unsafe_get re i *. 1.0
      and xi = Array.unsafe_get im i *. 1.0 in
      Array.unsafe_set re i (Array.unsafe_get re j *. 1.0);
      Array.unsafe_set im i (Array.unsafe_get im j *. 1.0);
      Array.unsafe_set re j xr;
      Array.unsafe_set im j xi
    end
  done

(** swap (with any controls): exchange amplitudes across the bit pair. *)
let kswap ~re ~im ~size ~ba ~bb ~cmask ~cwant =
  par_range size (kswap_chunk ~re ~im ~ba ~bb ~cmask ~cwant)

let kw_chunk ~re ~im ~ba ~bb ~cmask ~cwant ~r lo hi =
  for i = lo to hi - 1 do
    (* i is the |01> index of its quadruple: a clear, b set *)
    if i land ba = 0 && i land bb <> 0 && i land cmask = cwant then begin
      let j = i lxor ba lxor bb in
      let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
      let yr = Array.unsafe_get re j and yi = Array.unsafe_get im j in
      Array.unsafe_set re i ((r *. xr) +. (r *. yr));
      Array.unsafe_set im i ((r *. xi) +. (r *. yi));
      Array.unsafe_set re j ((r *. xr) -. (r *. yr));
      Array.unsafe_set im j ((r *. xi) -. (r *. yi))
    end
  done

(** W: H on the odd-parity subspace span(|01>, |10>), identity on |00>
    and |11>. [ba] is the first wire's (high) bit. *)
let kw ~re ~im ~size ~ba ~bb ~cmask ~cwant =
  let r = 1.0 /. sqrt 2.0 in
  par_range size (kw_chunk ~re ~im ~ba ~bb ~cmask ~cwant ~r)

(* ------------------------------------------------------------------ *)
(* Generic fallbacks (unrecognised unitaries)                          *)

let k1_chunk ~re ~im ~bit ~lowmask ~cmask ~cwant ~a_re ~a_im ~b_re ~b_im ~c_re
    ~c_im ~d_re ~d_im lo hi =
  let j = ref lo in
  while !j < hi do
    let run_end = let e = (!j lor lowmask) + 1 in if e < hi then e else hi in
    let base = expand !j lowmask in
    for k = 0 to run_end - !j - 1 do
      let i0 = base + k in
      if i0 land cmask = cwant then begin
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
      end
    done;
    j := run_end
  done

(** Generic single-qubit matrix application — the fallback for gates
    without a specialised kernel (V, Rx, user matrices). *)
let k1_generic ~re ~im ~size ~bit ~cmask ~cwant (m : Quipper_math.Mat2.t) =
  let open Quipper_math in
  let a = Mat2.get m 0 0 and b = Mat2.get m 0 1 in
  let c = Mat2.get m 1 0 and d = Mat2.get m 1 1 in
  let lowmask = bit - 1 in
  par_range (size / 2)
    (k1_chunk ~re ~im ~bit ~lowmask ~cmask ~cwant ~a_re:(Cplx.re a)
       ~a_im:(Cplx.im a) ~b_re:(Cplx.re b) ~b_im:(Cplx.im b) ~c_re:(Cplx.re c)
       ~c_im:(Cplx.im c) ~d_re:(Cplx.re d) ~d_im:(Cplx.im d))

(* ------------------------------------------------------------------ *)
(* Fused k-qubit kernels (gate fusion, {!Fuse})                        *)

(* Expand a compressed index [j] (all [k] support bits deleted) to the
   full index: insert a 0 bit at each deleted position. [masks] must be
   the support bits sorted ascending — each insertion only shifts bits
   at or above its own position, so ascending insertions never disturb
   one another. *)
let[@inline] kq_expand j (masks : int array) k =
  let base = ref j in
  for b = 0 to k - 1 do
    let low = Array.unsafe_get masks b - 1 in
    base := ((!base land lnot low) lsl 1) lor (!base land low)
  done;
  !base

let kq_chunk ~re ~im ~sorted ~offs ~mre ~mim ~dim ~k ~cmask ~cwant lo hi =
  (* per-chunk scratch: gather/apply/scatter buffers, allocated once per
     domain, not per index *)
  let vr = Array.make dim 0.0 and vi = Array.make dim 0.0 in
  let acc = Array.make 2 0.0 in
  for j = lo to hi - 1 do
    let base = kq_expand j sorted k in
    if base land cmask = cwant then begin
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
    end
  done

(* Unrolled 1-wire body: the 2x2 matrix lives in 8 scalar parameters,
   the quadruple of amplitude components in registers — no scratch
   arrays, no inner loops. Term order matches the generic body's
   accumulation (products grouped (er xr - ei xi), summed left to
   right), so results agree to the same reassociation the fusion tests
   budget. *)
let kq_chunk1 ~re ~im ~sorted ~b0 ~m00r ~m00i ~m01r ~m01i ~m10r ~m10i ~m11r
    ~m11i ~k ~cmask ~cwant lo hi =
  for j = lo to hi - 1 do
    let i0 = kq_expand j sorted k in
    if i0 land cmask = cwant then begin
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
    end
  done

(* Unrolled 2-wire body: gather the 4 amplitudes into locals, compute
   each output row as an explicit 4-term complex dot product, write
   back. The 4x4 matrix is read through [unsafe_get] — 32 entries stay
   cache-hot across the whole sweep. *)
let kq_chunk2 ~re ~im ~sorted ~o1 ~o2 ~o3 ~mre ~mim ~k ~cmask ~cwant lo hi =
  for j = lo to hi - 1 do
    let i0 = kq_expand j sorted k in
    if i0 land cmask = cwant then begin
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
    end
  done

(** Dense k-qubit matrix application: gather the [2^k] amplitudes of
    each compressed index, multiply by the row-major [2^k x 2^k] matrix
    (mre, mim), scatter back. Bit [i] of the matrix's basis index is
    [bits.(i)] (in any order; sorting for the index expansion is
    internal). The apply loop reads only the gathered scratch, so each
    output row can be written as soon as it is computed. Controls are a
    (mask, want) pair over full-index bits, disjoint from [bits].
    The common narrow blocks (k = 1, 2) run fully unrolled bodies with
    no scratch arrays — they are what makes small dense fusions cheaper
    than replaying their gates. *)
let kq_generic ~re ~im ~size ~(bits : int array) ~cmask ~cwant ~mre ~mim =
  let k = Array.length bits in
  let dim = 1 lsl k in
  let sorted = Array.copy bits in
  Array.sort compare sorted;
  let offs =
    Array.init dim (fun l ->
        let o = ref 0 in
        for b = 0 to k - 1 do
          if l land (1 lsl b) <> 0 then o := !o lor bits.(b)
        done;
        !o)
  in
  if k = 1 then
    par_range (size lsr 1)
      (kq_chunk1 ~re ~im ~sorted ~b0:bits.(0) ~m00r:mre.(0) ~m00i:mim.(0)
         ~m01r:mre.(1) ~m01i:mim.(1) ~m10r:mre.(2) ~m10i:mim.(2) ~m11r:mre.(3)
         ~m11i:mim.(3) ~k ~cmask ~cwant)
  else if k = 2 then
    par_range (size lsr 2)
      (kq_chunk2 ~re ~im ~sorted ~o1:offs.(1) ~o2:offs.(2) ~o3:offs.(3) ~mre
         ~mim ~k ~cmask ~cwant)
  else
    par_range (size lsr k)
      (kq_chunk ~re ~im ~sorted ~offs ~mre ~mim ~dim ~k ~cmask ~cwant)

let kq_diag_chunk ~re ~im ~sorted ~offs ~dre ~di ~dim ~k ~cmask ~cwant lo hi =
  for j = lo to hi - 1 do
    let base = kq_expand j sorted k in
    if base land cmask = cwant then
      for l = 0 to dim - 1 do
        let i = base lor Array.unsafe_get offs l in
        let dr = Array.unsafe_get dre l and dm = Array.unsafe_get di l in
        let xr = Array.unsafe_get re i and xi = Array.unsafe_get im i in
        Array.unsafe_set re i ((dr *. xr) -. (dm *. xi));
        Array.unsafe_set im i ((dr *. xi) +. (dm *. xr))
      done
  done

(** Fused k-qubit diagonal: one sweep multiplying each amplitude by the
    diagonal entry selected by its [k] support bits — the collapsed form
    of a whole run of diagonal gates. Bit [i] of the [2^k]-entry table
    (dre, di) is [bits.(i)]. Iteration is by compressed base (all
    support bits deleted) with a precomputed offset per table entry, so
    the per-amplitude work is one table index, not a [k]-step bit
    extraction. Controls are checked once per group: control bits are
    disjoint from the support, so they are constant across a group. *)
let kq_diag ~re ~im ~size ~(bits : int array) ~cmask ~cwant ~dre ~di =
  let k = Array.length bits in
  let dim = 1 lsl k in
  let sorted = Array.copy bits in
  Array.sort compare sorted;
  let offs =
    Array.init dim (fun l ->
        let o = ref 0 in
        for b = 0 to k - 1 do
          if l land (1 lsl b) <> 0 then o := !o lor bits.(b)
        done;
        !o)
  in
  par_range (size lsr k)
    (kq_diag_chunk ~re ~im ~sorted ~offs ~dre ~di ~dim ~k ~cmask ~cwant)

(** Generic two-qubit matrix application, basis order |ab> with [ba] the
    high bit. *)
let k2_generic ~re ~im ~size ~ba ~bb ~cmask ~cwant (m : Quipper_math.Mat2.t) =
  let open Quipper_math in
  par_range size (fun lo hi ->
      for i = lo to hi - 1 do
        if i land ba = 0 && i land bb = 0 && i land cmask = cwant then begin
          let idx = [| i; i lor bb; i lor ba; i lor ba lor bb |] in
          let xr = Array.map (fun j -> re.(j)) idx in
          let xi = Array.map (fun j -> im.(j)) idx in
          for r = 0 to 3 do
            let acc_re = ref 0.0 and acc_im = ref 0.0 in
            for c = 0 to 3 do
              let e = Mat2.get m r c in
              let er = Cplx.re e and ei = Cplx.im e in
              acc_re := !acc_re +. (er *. xr.(c)) -. (ei *. xi.(c));
              acc_im := !acc_im +. (er *. xi.(c)) +. (ei *. xr.(c))
            done;
            re.(idx.(r)) <- !acc_re;
            im.(idx.(r)) <- !acc_im
          done
        end
      done)
