(** In-place statevector kernels: the specialised hot loops behind
    {!Statevector}, dispatched via {!Quipper.Gate.fast_class}.

    X/CNOT/Toffoli and swap are index swaps, the diagonal family (Z, S,
    T, R/Ph, Rz, exp(-i%Z), controlled phase) is a phase multiply, H
    and W are the only butterflies. Controls arrive pre-folded as one
    (mask, want) pair. Every kernel iterates the control subspace: the
    target and quantum-control bits are deleted from the index, so a
    gate with [c] controls visits only the [size lsr (targets + c)]
    groups its controls select and tests no index against the mask.
    All kernels operate on the first [size] elements of a (re, im) pair
    of unboxed float arrays (the arrays may be longer — capacity is
    managed by the caller) and produce results bit-identical to the
    generic matrix path of the {!Reference} engine.

    Fan-out follows one rule for every kernel: a call runs on {!Pool}
    in {!num_domains} chunks of its compressed index space when the
    amplitudes it touches reach {!threshold} — [2^(n-c)] for a
    [c]-control gate on [n] qubits ([2^(n-c-1)] for swap, W and the
    set-half multiply of a diagonal with d0 = 1), whatever its kind. At
    the default threshold a 9-control X on 20 qubits stays sequential,
    while H, W and uncontrolled gates there fan out. The partition is
    deterministic and elementwise, so results are independent of the
    domain count. *)

val env : string -> (string -> ('a, string) result) -> 'a option
(** [env name parse] reads the tuning variable [name]: [None] when it
    is unset or blank, [Some v] when [parse] accepts its (trimmed)
    value, and otherwise raises [Quipper.Errors.Error (Invalid _)]
    naming the variable, its value and [parse]'s complaint. Every
    [QUIPPER_*] tuning variable ([QUIPPER_DOMAINS],
    [QUIPPER_PAR_THRESHOLD], [QUIPPER_ENGINE]) is read through it, so a
    typo stops the program instead of silently running the default. *)

val positive_int : string -> (int, string) result
(** The parser of the integer tuning variables: a positive decimal
    integer. *)

val num_domains : int ref
(** Chunks a large kernel (and a {!Quipper_serve} batch) splits into;
    defaults to [Domain.recommended_domain_count ()], overridden at
    startup by the environment variable [QUIPPER_DOMAINS] (read through
    {!env}: a value other than a positive integer raises at startup;
    benchmarks and CI pin parallelism this way without code edits). The
    chunks run on {!Pool}, a process-wide pool capped at the core count
    with the caller taking part, so any value is safe, however far past
    OCaml's domain limit. Set to 1 to force the sequential path. *)

val threshold : int ref
(** Minimum number of amplitudes a kernel call must touch before it
    fans out on the pool; defaults to [2^19], overridden at startup by
    the environment variable [QUIPPER_PAR_THRESHOLD] (read through
    {!env}, like [QUIPPER_DOMAINS]). *)

val par_range : ?touch:int -> int -> (int -> int -> unit) -> unit
(** [par_range ~touch n f] runs [f lo hi] over a partition of [0, n),
    where each index touches [touch] amplitudes (default 1): while
    [n * touch] is below the threshold as one call, from it on as
    {!num_domains} contiguous chunks (the last takes the remainder) on
    the pool. [f] must touch disjoint state per index. *)

val kx :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val ky :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val kh :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> unit

val kdiag :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> d0_re:float -> d0_im:float -> d1_re:float -> d1_im:float -> unit
(** Multiply the target-clear/-set halves by d0/d1; takes the half-space
    fast path when d0 = 1. *)

val kphase :
  re:float array -> im:float array -> size:int -> cmask:int -> cwant:int ->
  angle:float -> unit

val sum_norm2_half :
  re:float array -> im:float array -> size:int -> bit:int -> want:bool -> float
(** Sum of |amp|^2 over the half where [bit] is set ([want = true]) or
    clear, ascending — the same float additions in the same order as a
    full ascending scan that skips the other half, so bit-identical to
    the seed engine's probability reductions. Always sequential. *)

val sum_norm2_half_unord :
  re:float array -> im:float array -> size:int -> bit:int -> want:bool -> float
(** Like {!sum_norm2_half} but with independent accumulator lanes — a
    different (but machine-independent) summation order, ulps away from
    the ordered result. Only for sums compared against coarse
    thresholds (the Term assertion), never for anything that feeds
    amplitudes or sampling. *)

val kswap :
  re:float array -> im:float array -> size:int -> ba:int -> bb:int ->
  cmask:int -> cwant:int -> unit

val kw :
  re:float array -> im:float array -> size:int -> ba:int -> bb:int ->
  cmask:int -> cwant:int -> unit
(** The BWT W gate: a butterfly on the odd-parity subspace; [ba] is the
    first wire's (high) bit. *)

val k1_generic :
  re:float array -> im:float array -> size:int -> bit:int -> cmask:int ->
  cwant:int -> Quipper_math.Mat2.t -> unit
(** Fallback: full 2x2 complex matrix application. *)

val kq_generic :
  re:float array -> im:float array -> size:int -> bits:int array ->
  cmask:int -> cwant:int -> mre:float array -> mim:float array -> unit
(** Fused dense k-qubit block ({!Fuse}): gather the [2^k] amplitudes of
    each compressed index, multiply by the row-major [2^k x 2^k] complex
    matrix [(mre, mim)], scatter back. [bits.(i)] is the full-index bit
    of basis-index bit [i]; [bits] need not be sorted. The control
    (mask, want) pair must be disjoint from [bits]; only the groups it
    selects are visited. One sweep costs O([4^k]) flops per [2^k]
    amplitudes, so this pays off only for blocks holding several gates
    — single gates keep their specialised kernels. *)

val kq_diag :
  re:float array -> im:float array -> size:int -> bits:int array ->
  cmask:int -> cwant:int -> dre:float array -> di:float array -> unit
(** Fused k-qubit diagonal block: one sweep multiplying each selected
    amplitude by the [2^k]-entry table [(dre, di)] indexed by its
    support bits — a whole run of diagonal gates for the price of one
    diagonal sweep. Same [bits]/controls conventions as
    {!kq_generic}. *)
