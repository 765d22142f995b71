(** The shot service: batched many-shot execution under concurrent load.

    Simulate a circuit {e once} to its pre-measurement state, freeze it
    through the {!Quipper_sim.Backend.S} sampling surface, and draw N
    measurement samples from the frozen copy — marginal cost per shot
    near zero, outcomes bit-identical to N independent end-to-end runs
    at equal seeds (the sampling law of [backend.mli], property-checked
    in [test_serve]).

    A service caches prepared states across requests, keyed on
    [(Circuit.hash, inputs)] and LRU-bounded when given a capacity, and
    shares one {!Quipper_sim.Fuse} compiled-box cache across all
    preparations. Every dense state a preparation or a resimulated shot
    runs is released once it is snapped or read
    ({!Quipper_sim.Statevector.release}), so preparations on one domain
    reuse one amplitude-buffer pair instead of each growing its own;
    {!submit_batch} splits independent requests into
    deterministic contiguous chunks run on a process-wide pool, capped at
    the core count, with the caller taking part — so every outcome is a
    function of the request's own seed, never of the worker count.

    {!submit_sweep} serves parameter sweeps — one circuit skeleton at
    many rotation-angle vectors — through a second cache keyed on
    [(Circuit.hash_skeleton, inputs)]: the fuser's block program
    compiles once per skeleton and each point re-specializes only the
    rotation/diagonal kernel entries, with outcomes bit-identical to
    submitting each angle-substituted circuit separately. The CLI front
    end is [bin/shotd.exe]. *)

open Quipper

type request = {
  circuit : Circuit.b;
  inputs : bool list;  (** basis-state inputs, arity order *)
  shots : int;
  seed : int;
      (** shot [s] draws from [Rng.create (Rng.derive seed s)] — the
          whole request replays from this one number *)
}

type sweep = {
  sw_circuit : Circuit.b;
      (** the circuit template; its own angles are the skeleton's
          representative and are substituted away at every point *)
  sw_inputs : bool list;  (** basis-state inputs, arity order *)
  sw_points : float array list;
      (** one angle vector per point, each of length
          [Circuit.num_angles sw_circuit], in {!Circuit.angles} order *)
  sw_shots : int;  (** shots per point *)
  sw_seed : int;
      (** point [i] serves as an independent request at seed
          [Rng.derive sw_seed i] *)
}

type reply = {
  outcomes : bool array array;
      (** [shots x outputs]: measured outputs of each shot, arity order;
          shot [s] is bit-identical to a fresh end-to-end run of the
          circuit at seed [Rng.derive seed s] on the serving backend *)
  backend : string;  (** backend that served the request *)
  cache_hit : bool;
      (** prepared state came from the request cache (for sweep points:
          the skeleton template came from the template cache) *)
  sampled : int;  (** shots drawn from the frozen snapshot *)
  resimulated : int;
      (** shots that fell back to one full re-simulation each (the
          backend declined to snapshot — e.g. mid-circuit measurement
          consumed seeded randomness) *)
}

(** Which backend prepares and serves requests. [`Auto] (default) runs
    the polynomial-time stabilizer tableau where the gate set permits
    and the gate-fusion statevector pipeline otherwise; the rest force
    the choice ([`Fused] and [`Statevector] agree bit for bit on
    classical outcomes, [`Fused] is faster). *)
type backend_choice = [ `Auto | `Clifford | `Fused | `Statevector ]

type t
(** A shot service: request cache + template cache + shared compiled-box
    cache. Safe to share across domains; all internal state is
    mutex-protected. *)

val create :
  ?backend:backend_choice ->
  ?optimize:bool ->
  ?capacity:int ->
  ?template_capacity:int ->
  unit ->
  t
(** [optimize] (default [false]) runs each circuit through the streaming
    peephole optimizer ([Quipper_opt.Stream_opt.optimize_b]) once at
    preparation time, before the backend simulates it — amortized across
    cached requests exactly like the preparation, with one shared
    skeleton memo ([Stream_opt.memo]) replaying box-body rewrites across
    the points of a sweep. Cache keys use the submitted circuit, so
    clients never see the rewrite. Outcomes stay equal in distribution,
    but not bit-for-bit against an unoptimized service at equal seeds:
    fusing rotations perturbs amplitudes at floating-point precision,
    which can flip a borderline sample.

    [capacity] bounds the request cache and [template_capacity] the
    sweep-template cache (both default unbounded; raises
    [Invalid_argument] below 1): past the bound, each insertion first
    evicts the least-recently-used entry — a long-lived service under a
    diverse stream stays at the bound instead of growing forever, at
    worst re-preparing an evicted circuit on its next appearance.
    Eviction never changes outcomes, only the [stats] counters. *)

val submit : t -> request -> reply
(** Serve one request: prepare (or fetch) the frozen pre-measurement
    state, then draw every shot from it. Each distinct key is prepared
    exactly once however many workers race for it ({!Quipper_sim.Memo}):
    the first prepares, the rest block until the preparation settles
    and count as cache hits (asserted in [test_serve]). Raises like the
    underlying backend ([Simulation _] on incapable gate sets,
    termination assertions if the circuit trips one during
    preparation); a failed preparation wakes the waiters, one of which
    retries. *)

val submit_batch : t -> request list -> (reply, string) result list
(** Serve independent requests concurrently: the batch splits into
    [min !Quipper_sim.Kernel.num_domains n] contiguous chunks of
    [ceil (n / chunks)] requests, run on {!Quipper_sim.Pool} — a
    process-wide pool, capped at the core count, with the caller taking
    part. Outcomes are independent of the chunk and worker counts, {e
    and} of whether [submit] or [submit_batch] served them. Exceptions
    are contained per request: one failing request never loses a
    batch. *)

val submit_sweep : t -> sweep -> (reply, string) result list
(** Serve every point of a parameter sweep, chunked onto the same
    process-wide pool (capped at the core count, with the caller taking
    part) as {!submit_batch}. The angle-independent structure — fuser block
    boundaries, commutation scheduling, wire remaps, box replay
    plumbing — is compiled once per [(Circuit.hash_skeleton, inputs)]
    class ({!Quipper_sim.Fuse.compile_template}) and cached across
    sweeps; each point then re-specializes only the rotation/diagonal
    kernel entries. Clifford-served skeletons share a single prepared
    entry across all points (the tableau ignores [Phase] angles and
    admits no other angle site). Reply [i] is bit-identical to
    [submit t (List.nth (sweep_requests sw) i)] — same outcomes, same
    shot seeds — and errors (arity-mismatched points, incapable
    backends) are contained per point. Sweep points never populate the
    per-request cache, so sweeping cannot evict hot request entries. *)

val sweep_requests : sweep -> request list
(** The equivalent independent requests, one per point: the circuit with
    the point's angles substituted ({!Circuit.subst_angles}), at seed
    [Rng.derive sw_seed i] — the naive path {!submit_sweep} must match
    bit for bit, and the reference the N10 benchmark times it against.
    Raises [Errors.Error] if a point's arity differs from
    [Circuit.num_angles sw_circuit]. *)

val naive : t -> request -> bool array array
(** The per-shot rebuild+resimulate path the service exists to beat:
    shot [s] runs the circuit end to end at seed [Rng.derive seed s],
    nothing cached, nothing frozen. Bit-identical to
    [(submit t req).outcomes] — the acceptance property the N7
    benchmark asserts before timing anything. *)

type stats = {
  hits : int;
  misses : int;
  prepares : int;
  entries : int;  (** distinct prepared circuits resident *)
  evictions : int;  (** request-cache LRU evictions *)
  t_hits : int;  (** sweeps served from a cached skeleton template *)
  t_misses : int;  (** sweeps that compiled their skeleton template *)
  t_entries : int;  (** skeleton templates resident *)
  t_evictions : int;  (** template-cache LRU evictions *)
  specialized : int;
      (** sweep points served by per-angle kernel re-specialization *)
}

val stats : t -> stats
(** Cache counters since [create] ([prepares] = completed preparation
    runs, equal to [misses] minus failed preparations plus sweep points
    prepared outside the request cache — racing workers that blocked on
    an in-flight preparation count as [hits]). *)

val pp_stats : Format.formatter -> stats -> unit
