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
    so boxed subroutines compile once for the whole service. Both caches
    are LRU-bounded when a capacity is given: a long-lived service under
    a diverse request stream evicts the least-recently-used preparation
    instead of growing without bound. Batches split into contiguous
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

(* An LRU slot: [tick] is the owning service's logical clock at last
   use; eviction removes the minimum. A linear min-scan is O(capacity)
   but runs only on insertion into a full cache, where it is dwarfed by
   the preparation that produced the entry. *)
type 'v slot = { v : 'v; mutable tick : int }

type t = {
  choice : backend_choice;
  optimize : bool;
  capacity : int option;  (** request-cache bound; [None] = unbounded *)
  tcapacity : int option;  (** template-cache bound *)
  boxes : Fuse.box_cache;
  memo : Stream_opt.memo;
      (** shared skeleton memo for [optimize] services: box bodies
          optimize once per skeleton and replay per angle vector *)
  cache : (int64 * bool list, entry slot) Hashtbl.t;
  inflight : (int64 * bool list, unit) Hashtbl.t;
      (** keys some worker is currently preparing *)
  tcache : (int64 * bool list, tentry slot) Hashtbl.t;
  t_inflight : (int64 * bool list, unit) Hashtbl.t;
  lock : Mutex.t;
  cond : Condition.t;  (** signalled when an in-flight preparation settles *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable prepares : int;  (** completed preparations (the expensive runs) *)
  mutable evictions : int;
  mutable t_hits : int;
  mutable t_misses : int;
  mutable t_evictions : int;
  mutable specialized : int;  (** sweep points served by re-specialization *)
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
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Quipper_serve.create: capacity < 1"
  | _ -> ());
  (match template_capacity with
  | Some c when c < 1 -> invalid_arg "Quipper_serve.create: template_capacity < 1"
  | _ -> ());
  {
    choice = backend;
    optimize;
    capacity;
    tcapacity = template_capacity;
    boxes = Fuse.box_cache ();
    memo = Stream_opt.memo ();
    cache = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    tcache = Hashtbl.create 8;
    t_inflight = Hashtbl.create 8;
    lock = Mutex.create ();
    cond = Condition.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    prepares = 0;
    evictions = 0;
    t_hits = 0;
    t_misses = 0;
    t_evictions = 0;
    specialized = 0;
  }

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      prepares = t.prepares;
      entries = Hashtbl.length t.cache;
      evictions = t.evictions;
      t_hits = t.t_hits;
      t_misses = t.t_misses;
      t_entries = Hashtbl.length t.tcache;
      t_evictions = t.t_evictions;
      specialized = t.specialized;
    }
  in
  Mutex.unlock t.lock;
  s

(* ------------------------------------------------------------------ *)
(* LRU plumbing (lock held by the caller)                              *)

let bump t =
  t.clock <- t.clock + 1;
  t.clock

let evict_min tbl =
  let victim =
    Hashtbl.fold
      (fun k (s : _ slot) acc ->
        match acc with
        | Some (_, best) when best <= s.tick -> acc
        | _ -> Some (k, s.tick))
      tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove tbl k;
      true
  | None -> false

(* insert under a capacity bound, evicting least-recently-used entries
   first; returns how many were evicted *)
let bounded_add t tbl cap key value =
  let evicted = ref 0 in
  (match cap with
  | Some cap ->
      while Hashtbl.length tbl >= cap && evict_min tbl do
        incr evicted
      done
  | None -> ());
  Hashtbl.replace tbl key { v = value; tick = bump t };
  !evicted

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

let measure_fused st outputs =
  Array.of_list
    (List.map
       (fun (e : Wire.endpoint) ->
         match e.Wire.ty with
         | Wire.Q -> Fuse.measure st e.Wire.wire
         | Wire.C -> Fuse.read_bit st e.Wire.wire)
       outputs)

let prepare_fused boxes req outputs =
  let st = Fuse.run_circuit ~boxes ~seed:prep_seed req.circuit req.inputs in
  {
    e_backend = "fused";
    e_sample =
      (match Fuse.snapshot st with
      | Some snap ->
          Some
            (fun rng -> Array.of_list (Statevector.sample_from snap ~rng outputs))
      | None -> None);
    e_resim =
      (fun seed ->
        let st = Fuse.run_circuit ~boxes ~seed req.circuit req.inputs in
        measure_fused st outputs);
  }

let prepare_sv req outputs =
  let st = Statevector.run_circuit ~seed:prep_seed req.circuit req.inputs in
  {
    e_backend = "statevector";
    e_sample =
      (match Statevector.snapshot st with
      | Some snap ->
          Some
            (fun rng -> Array.of_list (Statevector.sample_from snap ~rng outputs))
      | None -> None);
    e_resim =
      (fun seed ->
        bits_of (module Backend.Statevector) ~seed req.circuit req.inputs);
  }

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

(* Each key is prepared exactly once, however many workers race for it:
   the first worker marks the key in-flight and prepares outside the
   lock (preparation is a full simulation and must not serialize the
   other workers); the rest block on the condition variable until the
   preparation settles and then take the cached entry as a hit. If the
   preparer dies, it clears the in-flight mark and wakes the waiters, so
   one of them retries — a failure never wedges the key. *)
let lookup_or_prepare t req =
  let key = (Circuit.hash req.circuit, req.inputs) in
  Mutex.lock t.lock;
  let rec acquire () =
    match Hashtbl.find_opt t.cache key with
    | Some slot ->
        t.hits <- t.hits + 1;
        slot.tick <- bump t;
        Mutex.unlock t.lock;
        `Cached slot.v
    | None ->
        if Hashtbl.mem t.inflight key then begin
          Condition.wait t.cond t.lock;
          acquire ()
        end
        else begin
          t.misses <- t.misses + 1;
          Hashtbl.replace t.inflight key ();
          Mutex.unlock t.lock;
          `Prepare
        end
  in
  match acquire () with
  | `Cached e -> (e, true)
  | `Prepare -> (
      match prepare t req with
      | e ->
          Mutex.lock t.lock;
          t.evictions <- t.evictions + bounded_add t t.cache t.capacity key e;
          t.prepares <- t.prepares + 1;
          Hashtbl.remove t.inflight key;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          (e, false)
      | exception exn ->
          Mutex.lock t.lock;
          Hashtbl.remove t.inflight key;
          Condition.broadcast t.cond;
          Mutex.unlock t.lock;
          raise exn)

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

(* Same once-per-key discipline as [lookup_or_prepare], on the template
   cache: skeleton classes compile once however many sweeps race. *)
let lookup_or_prepare_template t (sw : sweep) (v0 : float array) =
  let key = (Circuit.hash_skeleton sw.sw_circuit, sw.sw_inputs) in
  Mutex.lock t.lock;
  let rec acquire () =
    match Hashtbl.find_opt t.tcache key with
    | Some slot ->
        t.t_hits <- t.t_hits + 1;
        slot.tick <- bump t;
        Mutex.unlock t.lock;
        `Cached slot.v
    | None ->
        if Hashtbl.mem t.t_inflight key then begin
          Condition.wait t.cond t.lock;
          acquire ()
        end
        else begin
          t.t_misses <- t.t_misses + 1;
          Hashtbl.replace t.t_inflight key ();
          Mutex.unlock t.lock;
          `Prepare
        end
  in
  match acquire () with
  | `Cached te -> (te, true)
  | `Prepare ->
      (* [prepare_template] never raises (failures degrade to Tplain),
         but keep the key un-wedged against surprises all the same *)
      let te = try prepare_template t sw v0 with exn ->
        Mutex.lock t.lock;
        Hashtbl.remove t.t_inflight key;
        Condition.broadcast t.cond;
        Mutex.unlock t.lock;
        raise exn
      in
      Mutex.lock t.lock;
      t.t_evictions <- t.t_evictions + bounded_add t t.tcache t.tcapacity key te;
      Hashtbl.remove t.t_inflight key;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      (te, false)

(* Serve point [i] of a sweep: bit-identical to
   [submit t (List.nth (sweep_requests sw) i)]. [Tshared] draws from
   the one angle-independent clifford entry; [Tfused] re-specializes
   only the rotation/diagonal kernel entries ([Fuse.run_template] is
   bit-identical to re-running the substituted circuit at equal seeds);
   [Tplain] runs the ordinary preparation on the substituted circuit,
   bypassing the request cache. *)
let serve_point t (sw : sweep) (tent : tentry) ~warm i (v : float array) : reply
    =
  let seed = Rng.derive sw.sw_seed i in
  match tent with
  | Tshared e -> draw_shots e ~shots:sw.sw_shots ~seed ~cache_hit:warm
  | Tfused (tpl, outputs) ->
      let st = Fuse.run_template ~seed:prep_seed tpl v in
      let entry =
        {
          e_backend = "fused";
          e_sample =
            (match Fuse.snapshot st with
            | Some snap ->
                Some
                  (fun rng ->
                    Array.of_list (Statevector.sample_from snap ~rng outputs))
            | None -> None);
          e_resim =
            (fun seed ->
              let st = Fuse.run_template ~seed tpl v in
              measure_fused st outputs);
        }
      in
      Mutex.lock t.lock;
      t.specialized <- t.specialized + 1;
      Mutex.unlock t.lock;
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
      Mutex.lock t.lock;
      t.prepares <- t.prepares + 1;
      Mutex.unlock t.lock;
      draw_shots entry ~shots:sw.sw_shots ~seed ~cache_hit:false

let submit_sweep t (sw : sweep) : (reply, string) result list =
  if sw.sw_shots < 0 then
    invalid_arg "Quipper_serve.submit_sweep: negative shots";
  match sw.sw_points with
  | [] -> []
  | v0 :: _ ->
      let points = Array.of_list sw.sw_points in
      let n = Array.length points in
      let tent, warm = lookup_or_prepare_template t sw v0 in
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
