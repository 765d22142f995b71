(** The shot service: batched many-shot execution.

    The generate-once/run-many model (paper §1.2) implies the dominant
    production workload is not one simulation but thousands of shots of
    the same circuit from many clients. The simulators used to pay one
    full build+simulate per shot; this module pays it once per distinct
    request: simulate the circuit to its pre-measurement state on the
    cheapest capable backend (stabilizer tableau for Clifford circuits,
    the fused statevector pipeline otherwise), freeze it through the
    {!Quipper_sim.Backend.S} sampling surface, and draw every shot from
    the frozen copy under its own derived RNG — marginal cost per shot
    near zero, outcomes bit-identical to per-shot re-simulation at equal
    seeds (the sampling law, checked in [test_serve] and asserted by the
    N7 benchmark).

    Prepared states are cached across requests, keyed on
    [(Circuit.hash circuit, inputs)] — the canonical structural hash, so
    two clients submitting structurally-equal circuits share one
    preparation — and every preparation shares one {!Fuse.box_cache},
    so boxed subroutines compile once for the whole service. The request
    and template caches are {!Quipper_sim.Memo}s: each key prepares once
    however many workers race for it, and both are LRU-bounded when a
    capacity is given, so a long-lived service under a diverse request
    stream evicts the least-recently-used preparation instead of growing
    without bound. Batches split into contiguous
    deterministic chunks on the process-wide {!Quipper_sim.Pool}: shot
    [s] of request [r] depends only on [Rng.derive r.seed s], never on
    the worker count or which worker served it.

    Parameter sweeps — the same circuit skeleton at many rotation-angle
    vectors — get a second cache level keyed on
    [(Circuit.hash_skeleton circuit, inputs)]: the fuser's block program
    is compiled once per skeleton ({!Fuse.compile_template}) and each
    point re-specializes only the rotation/diagonal kernel entries,
    skipping every per-point structural recompilation. Sweep outcomes
    are bit-identical to submitting the angle-substituted circuits one
    by one ({!sweep_requests}); sweeps never populate the per-request
    cache, so a 1024-point sweep cannot evict a hot request entry. *)

open Quipper
module Rng = Quipper_math.Rng
module Backend = Quipper_sim.Backend
module Fuse = Quipper_sim.Fuse
module Statevector = Quipper_sim.Statevector
module Clifford = Quipper_sim.Clifford
module Kernel = Quipper_sim.Kernel
module Pool = Quipper_sim.Pool
module Memo = Quipper_sim.Memo
module Stream_opt = Quipper_opt.Stream_opt

type request = {
  circuit : Circuit.b;
  inputs : bool list;
  shots : int;
  seed : int;
}

type sweep = {
  sw_circuit : Circuit.b;
  sw_inputs : bool list;
  sw_points : float array list;
  sw_shots : int;
  sw_seed : int;
}

type reply = {
  outcomes : bool array array;  (** [shots x outputs], arity order *)
  backend : string;  (** backend that served the request *)
  cache_hit : bool;  (** prepared state came from the request cache *)
  sampled : int;  (** shots drawn from the frozen snapshot *)
  resimulated : int;  (** shots that fell back to full re-simulation *)
}

type backend_choice = [ `Auto | `Clifford | `Fused | `Statevector ]

(* A prepared circuit: how to draw one shot from the frozen
   pre-measurement state (when the backend could freeze it) and how to
   run one full end-to-end shot (the fallback, and the reference the
   frozen path must match bit for bit). Entries are immutable and
   domain-shareable. *)
type entry = {
  e_backend : string;
  e_sample : (Rng.t -> bool array) option;
  e_resim : int -> bool array;
}

(* How a skeleton class serves its sweep points. [Tfused] holds the
   angle-generic block program: each point re-specializes only the
   rotation/diagonal kernel entries. [Tshared] is a clifford entry
   valid at {e every} point — the tableau rejects [Rot] by name and
   ignores [Phase] angles entirely, so outcomes cannot depend on the
   angle vector. [Tplain] marks classes with no template path (the
   [`Statevector] backend, [optimize] services, preparation failures):
   each point runs the ordinary per-request preparation. *)
type tentry =
  | Tfused of Fuse.template * Wire.endpoint list
  | Tshared of entry
  | Tplain

type t = {
  choice : backend_choice;
  optimize : bool;
  boxes : Fuse.box_cache;
  memo : Stream_opt.memo;
      (** shared skeleton memo for [optimize] services: box bodies
          optimize once per skeleton and replay per angle vector *)
  cache : (int64 * bool list, entry) Memo.t;
  tcache : (int64 * bool list, tentry) Memo.t;
  prepares : int Atomic.t;  (** completed preparations (the expensive runs) *)
  specialized : int Atomic.t;  (** sweep points served by re-specialization *)
}

type stats = {
  hits : int;
  misses : int;
  prepares : int;
  entries : int;
  evictions : int;
  t_hits : int;
  t_misses : int;
  t_entries : int;
  t_evictions : int;
  specialized : int;
}

let create ?(backend : backend_choice = `Auto) ?(optimize = false) ?capacity
    ?template_capacity () =
  {
    choice = backend;
    optimize;
    boxes = Fuse.box_cache ();
    memo = Stream_opt.memo ();
    cache = Memo.create ?capacity ();
    tcache = Memo.create ?capacity:template_capacity ();
    prepares = Atomic.make 0;
    specialized = Atomic.make 0;
  }

let stats t =
  let c = Memo.stats t.cache and tc = Memo.stats t.tcache in
  {
    hits = c.hits;
    misses = c.misses;
    prepares = Atomic.get t.prepares;
    entries = c.entries;
    evictions = c.evictions;
    t_hits = tc.hits;
    t_misses = tc.misses;
    t_entries = tc.entries;
    t_evictions = tc.evictions;
    specialized = Atomic.get t.specialized;
  }

(* ------------------------------------------------------------------ *)
(* Preparation                                                         *)

let shot_seed req s = Rng.derive req.seed s

(* The seed of the one clean preparation run. Any value works: a
   snapshot only exists when the run consumed no randomness, in which
   case the frozen state is the same whatever the seed. *)
let prep_seed = 1

let bits_of (module B : Backend.S) ?seed circuit inputs =
  Array.of_list (Backend.run_and_measure (module B) ?seed circuit inputs)

let prepare_clifford req outputs =
  let st = Clifford.run_circuit ~seed:prep_seed req.circuit req.inputs in
  {
    e_backend = "clifford";
    e_sample =
      (match Clifford.snapshot st with
      | Some snap ->
          Some (fun rng -> Array.of_list (Clifford.sample_from snap ~rng outputs))
      | None -> None);
    e_resim =
      (fun seed -> bits_of (module Backend.Clifford) ~seed req.circuit req.inputs);
  }

(* [run seed] is one run of the prepared circuit on a dense backend.
   Each state is dropped right after its snapshot or its readout, so it
   hands its buffers back first: the next preparation on this domain
   reuses them instead of growing a fresh pair. *)
let dense_entry backend run outputs =
  let st = run prep_seed in
  let snap = Statevector.snapshot st in
  Statevector.release st;
  {
    e_backend = backend;
    e_sample =
      Option.map
        (fun snap rng -> Array.of_list (Statevector.sample_from snap ~rng outputs))
        snap;
    e_resim =
      (fun seed ->
        let st = run seed in
        let bits =
          Quipper_sim.Drive.readout ~measure:(Statevector.measure st)
            ~read_bit:(Statevector.read_bit st) outputs
        in
        Statevector.release st;
        Array.of_list bits);
  }

(* a fused run of a full circuit or a re-specialized template, read
   through its flushed statevector *)
let fused_entry run outputs =
  dense_entry "fused" (fun seed -> Fuse.statevector (run seed)) outputs

let prepare_fused boxes req outputs =
  fused_entry
    (fun seed -> Fuse.run_circuit ~boxes ~seed req.circuit req.inputs)
    outputs

let prepare_sv req outputs =
  dense_entry "statevector"
    (fun seed -> Statevector.run_circuit ~seed req.circuit req.inputs)
    outputs

let prepare t req =
  (* Optimizing here (not in [submit]) means the rewrite runs once per
     distinct circuit, amortized across every cached request like the
     preparation itself. Both the frozen snapshot and the resimulation
     closures capture the rewritten circuit, so sampled and resimulated
     shots of one reply always come from the same gates. The rewrite
     happens after the cache key is taken, so clients keep addressing
     the service by the circuit they submitted. *)
  let req =
    if t.optimize then
      { req with circuit = Stream_opt.optimize_b ~memo:t.memo req.circuit }
    else req
  in
  (* inlining leaves the outer interface untouched, so the output
     endpoints are [main]'s verbatim — no need to build the flat circuit *)
  let outputs = req.circuit.Circuit.main.Circuit.outputs in
  match t.choice with
  | `Clifford -> prepare_clifford req outputs
  | `Fused -> prepare_fused t.boxes req outputs
  | `Statevector -> prepare_sv req outputs
  | `Auto -> (
      (* cheapest capable backend: the polynomial-time tableau where the
         gate set permits, the fused statevector pipeline otherwise *)
      match prepare_clifford req outputs with
      | e -> e
      | exception Errors.Error (Errors.Simulation _) ->
          prepare_fused t.boxes req outputs)

(* Each key is prepared once however many workers race for it (the
   others wait and count as hits), and a failed preparation leaves the
   key to the next caller: the {!Memo} discipline. *)
let lookup_or_prepare t req =
  Memo.find_or_compute t.cache
    (Circuit.hash req.circuit, req.inputs)
    (fun () ->
      let e = prepare t req in
      Atomic.incr t.prepares;
      e)

(* ------------------------------------------------------------------ *)
(* Serving                                                             *)

(* Draw [shots] outcomes from a prepared entry; [seed] is the owning
   request's, so this is the single definition both [submit] and the
   sweep path share — shot [s] depends on [Rng.derive seed s] alone. *)
let draw_shots (entry : entry) ~shots ~seed ~cache_hit : reply =
  let sampled = ref 0 and resimulated = ref 0 in
  let shot s =
    let sseed = Rng.derive seed s in
    match entry.e_sample with
    | Some draw ->
        incr sampled;
        draw (Rng.create sseed)
    | None ->
        incr resimulated;
        entry.e_resim sseed
  in
  let outcomes = Array.init shots shot in
  {
    outcomes;
    backend = entry.e_backend;
    cache_hit;
    sampled = !sampled;
    resimulated = !resimulated;
  }

let submit t req : reply =
  if req.shots < 0 then invalid_arg "Quipper_serve.submit: negative shots";
  let entry, cache_hit = lookup_or_prepare t req in
  draw_shots entry ~shots:req.shots ~seed:req.seed ~cache_hit

(* Serve [0 .. n-1] as up to [num_domains] contiguous chunks on the pool:
   result [i] is a function of item [i] alone, so the chunking and the
   worker count change wall-clock only, never outcomes. *)
let fan_out n serve =
  let chunks = max 1 (min !Kernel.num_domains n) in
  let chunk = (n + chunks - 1) / chunks in
  Pool.run ~domains:chunks chunks (fun w ->
      for i = w * chunk to min n ((w + 1) * chunk) - 1 do
        serve i
      done)

let submit_batch t (reqs : request list) : (reply, string) result list =
  let reqs = Array.of_list reqs in
  let n = Array.length reqs in
  let out = Array.make n (Error "unserved") in
  let serve i =
    out.(i) <-
      (match submit t reqs.(i) with
      | r -> Ok r
      | exception Errors.Error e -> Error (Errors.to_string e)
      | exception e -> Error (Printexc.to_string e))
  in
  fan_out n serve;
  Array.to_list out

(* ------------------------------------------------------------------ *)
(* Parameter sweeps                                                    *)

let sweep_requests (sw : sweep) : request list =
  List.mapi
    (fun i v ->
      {
        circuit = Circuit.subst_angles sw.sw_circuit v;
        inputs = sw.sw_inputs;
        shots = sw.sw_shots;
        seed = Rng.derive sw.sw_seed i;
      })
    sw.sw_points

(* Pick the serving mode for one skeleton class, probing capability at
   the first point's angles (capability is angle-independent on every
   backend: clifford rejects [Rot] by gate name and ignores [Phase]
   angles; the fused pipeline's scheduling never reads an angle). Any
   preparation failure degrades to [Tplain], where each point re-raises
   the same error through the ordinary preparation — contained per
   point, exactly like the equivalent [submit_batch]. *)
let prepare_template t (sw : sweep) (v0 : float array) : tentry =
  let outputs = sw.sw_circuit.Circuit.main.Circuit.outputs in
  let clifford_at v =
    prepare_clifford
      {
        circuit = Circuit.subst_angles sw.sw_circuit v;
        inputs = sw.sw_inputs;
        shots = 0;
        seed = 0;
      }
      outputs
  in
  let fused () =
    Tfused (Fuse.compile_template sw.sw_circuit sw.sw_inputs, outputs)
  in
  if t.optimize then
    (* the optimizer rewrites per angle vector (a rotation can cancel at
       one point and survive at another), so each point must go through
       the ordinary optimize+prepare path; the shared [memo] still
       amortizes the box-body rewrites across points *)
    Tplain
  else
    match t.choice with
    | `Statevector -> Tplain
    | `Clifford -> (
        match clifford_at v0 with e -> Tshared e | exception _ -> Tplain)
    | `Fused -> ( match fused () with te -> te | exception _ -> Tplain)
    | `Auto -> (
        match clifford_at v0 with
        | e -> Tshared e
        | exception Errors.Error (Errors.Simulation _) -> (
            match fused () with te -> te | exception _ -> Tplain)
        | exception _ -> Tplain)

(* Serve point [i] of a sweep: bit-identical to
   [submit t (List.nth (sweep_requests sw) i)]. [Tshared] draws from
   the one angle-independent clifford entry; [Tfused] re-specializes
   only the rotation/diagonal kernel entries ([Fuse.run_template] is
   bit-identical to re-running the substituted circuit at equal seeds);
   [Tplain] runs the ordinary preparation on the substituted circuit,
   bypassing the request cache. *)
let serve_point (t : t) (sw : sweep) (tent : tentry) ~warm i (v : float array) : reply
    =
  let seed = Rng.derive sw.sw_seed i in
  match tent with
  | Tshared e -> draw_shots e ~shots:sw.sw_shots ~seed ~cache_hit:warm
  | Tfused (tpl, outputs) ->
      let entry =
        fused_entry (fun seed -> Fuse.run_template ~seed tpl v) outputs
      in
      Atomic.incr t.specialized;
      draw_shots entry ~shots:sw.sw_shots ~seed ~cache_hit:warm
  | Tplain ->
      let req =
        {
          circuit = Circuit.subst_angles sw.sw_circuit v;
          inputs = sw.sw_inputs;
          shots = sw.sw_shots;
          seed;
        }
      in
      let entry = prepare t req in
      Atomic.incr t.prepares;
      draw_shots entry ~shots:sw.sw_shots ~seed ~cache_hit:false

let submit_sweep t (sw : sweep) : (reply, string) result list =
  if sw.sw_shots < 0 then
    invalid_arg "Quipper_serve.submit_sweep: negative shots";
  match sw.sw_points with
  | [] -> []
  | v0 :: _ ->
      let points = Array.of_list sw.sw_points in
      let n = Array.length points in
      (* skeleton classes compile once however many sweeps race *)
      let tent, warm =
        Memo.find_or_compute t.tcache
          (Circuit.hash_skeleton sw.sw_circuit, sw.sw_inputs)
          (fun () -> prepare_template t sw v0)
      in
      let out = Array.make n (Error "unserved") in
      let serve i =
        out.(i) <-
          (match serve_point t sw tent ~warm i points.(i) with
          | r -> Ok r
          | exception Errors.Error e -> Error (Errors.to_string e)
          | exception e -> Error (Printexc.to_string e))
      in
      fan_out n serve;
      Array.to_list out

let naive t req : bool array array =
  (* same rewrite as [prepare], so the sampling-law comparison against
     [submit] stays apples to apples under [optimize] *)
  let req =
    if t.optimize then
      { req with circuit = Stream_opt.optimize_b ~memo:t.memo req.circuit }
    else req
  in
  let one s =
    let seed = shot_seed req s in
    match t.choice with
    | `Clifford -> bits_of (module Backend.Clifford) ~seed req.circuit req.inputs
    | `Fused -> bits_of (module Backend.Fused) ~seed req.circuit req.inputs
    | `Statevector ->
        bits_of (module Backend.Statevector) ~seed req.circuit req.inputs
    | `Auto -> (
        match bits_of (module Backend.Clifford) ~seed req.circuit req.inputs with
        | bits -> bits
        | exception Errors.Error (Errors.Simulation _) ->
            bits_of (module Backend.Fused) ~seed req.circuit req.inputs)
  in
  Array.init req.shots one

let pp_stats ppf s =
  Fmt.pf ppf
    "%d hits, %d misses, %d prepares, %d cached circuits, %d evicted; \
     templates: %d hits, %d misses, %d cached, %d evicted, %d points \
     specialized"
    s.hits s.misses s.prepares s.entries s.evictions s.t_hits s.t_misses
    s.t_entries s.t_evictions s.specialized
