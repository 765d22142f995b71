(** Streaming circuit consumers.

    The paper's headline scalability evidence (§5.4) — counting a
    30-trillion-gate circuit without holding it — falls out of Haskell's
    laziness: consumers fold over the gate list as it is produced. Our
    strict builder materializes into a [Vec], so consumers that only need
    a fold (counting, depth, printing, simulation) pay O(gates) memory
    for no reason. A ['r t] is such a fold made first-class: callbacks
    for the events of a circuit-construction run, and a [finish] that
    renders the accumulated state into a result. {!Circ.run_streaming}
    drives a sink with per-gate O(1) memory.

    Event order mirrors what the buffering run records: [on_inputs] once
    up front, then gates in emission order; [on_subroutine_exit] fires
    when a box body has been captured, always before the first call gate
    of that subroutine, and nested definitions complete innermost-first
    (the same order as [Circuit.b.sub_order]). *)

type 'r t = {
  on_inputs : Wire.endpoint list -> unit;
  on_gate : Gate.t -> unit;
  on_subroutine_enter : string -> unit;
  on_subroutine_exit : string -> Circuit.subroutine -> unit;
  finish : Wire.endpoint list -> 'r;
}

let make ?(on_inputs = fun _ -> ()) ?(on_gate = fun _ -> ())
    ?(on_subroutine_enter = fun _ -> ()) ?(on_subroutine_exit = fun _ _ -> ())
    ~finish () =
  { on_inputs; on_gate; on_subroutine_enter; on_subroutine_exit; finish }

let map f (s : 'a t) : 'b t = { s with finish = (fun outs -> f (s.finish outs)) }

(** Feed one event stream to two sinks at once (one generation pass,
    several analyses). [finish] runs the left sink first. *)
let tee (a : 'a t) (b : 'b t) : ('a * 'b) t =
  {
    on_inputs =
      (fun es ->
        a.on_inputs es;
        b.on_inputs es);
    on_gate =
      (fun g ->
        a.on_gate g;
        b.on_gate g);
    on_subroutine_enter =
      (fun name ->
        a.on_subroutine_enter name;
        b.on_subroutine_enter name);
    on_subroutine_exit =
      (fun name sub ->
        a.on_subroutine_exit name sub;
        b.on_subroutine_exit name sub);
    finish =
      (fun outs ->
        let ra = a.finish outs in
        let rb = b.finish outs in
        (ra, rb));
  }

(* ------------------------------------------------------------------ *)
(* First-class sinks                                                   *)

(* a sink on the resource engine's streaming step *)
let on_stream st finish =
  {
    on_inputs = Resource.inputs st;
    on_gate = Resource.gate st;
    on_subroutine_enter = (fun _ -> ());
    on_subroutine_exit = Resource.define st;
    finish = (fun outs -> finish (List.length outs));
  }

(** The resource engine's streaming step: counts, peak and depth as
    selected, fed definitions as boxes close and call gates as they
    stream, so a call costs O(1) amortized whatever the callee's size. *)
let resource ?counts ?peak ?depth () : Resource.t t =
  let st = Resource.stream ?counts ?peak ?depth () in
  on_stream st (fun outputs -> Resource.finish st ~outputs)

(** The whole vector and each box's, from one walk. *)
let report () : (Resource.t * (string * Resource.t) list) t =
  let st = Resource.stream () in
  on_stream st (fun outputs ->
      let whole = Resource.finish st ~outputs in
      (whole, Resource.boxes st))

(** Its counts and peak, as {!Gatecount.summarize} projects them. *)
let gatecount () : Gatecount.summary t =
  map Gatecount.summary_of (resource ~depth:false ())

let depth_of (v : Resource.t) = Resource.to_int "the depth" v.Resource.depth

(** Its clock alone, as {!Depth.depth} projects it. *)
let depth () : int t = map depth_of (resource ~counts:false ~peak:false ())

(** Both projections of one walk; the summary is read first, as a
    [tee] of the two sinks would. *)
let summary_depth () : (Gatecount.summary * int) t =
  map
    (fun v ->
      let summary = Gatecount.summary_of v in
      (summary, depth_of v))
    (resource ())

(** Streaming text printing, byte-identical to {!Printer.pp_bcircuit} on
    the materialized circuit: gate lines go out as gates stream,
    subroutine blocks are held (definitions only, not their call sites'
    expansions) and printed after the outputs line, in definition order. *)
let printer (ppf : Format.formatter) : unit t =
  let subs = ref [] (* reversed definition order *) in
  {
    on_inputs = Printer.pp_inputs ppf;
    on_gate = Printer.pp_gate_line ppf;
    on_subroutine_enter = (fun _ -> ());
    on_subroutine_exit = (fun name sub -> subs := (name, sub) :: !subs);
    finish =
      (fun outs ->
        Printer.pp_outputs ppf outs;
        List.iter
          (fun (name, sub) -> Printer.pp_subroutine ppf name sub)
          (List.rev !subs);
        Format.pp_print_flush ppf ());
  }

(** Record the raw gate stream (tests; O(gates) memory, obviously). *)
let gates () : Gate.t list t =
  let acc = ref [] in
  {
    on_inputs = (fun _ -> ());
    on_gate = (fun g -> acc := g :: !acc);
    on_subroutine_enter = (fun _ -> ());
    on_subroutine_exit = (fun _ _ -> ());
    finish = (fun _ -> List.rev !acc);
  }

(** Rebuild a [Circuit.b] from the event stream: the collecting sink.
    Feeding a circuit through a sink transformer and into [circuit ()]
    materializes the transformed circuit (tests, and the non-streaming
    entry points of streaming transformers). O(gates) memory, of course. *)
let circuit () : Circuit.b t =
  let inputs = ref [] in
  let gates = Vec.create () in
  let subs = ref Circuit.Namespace.empty in
  let order = ref [] in
  {
    on_inputs = (fun es -> inputs := es);
    on_gate = (fun g -> Vec.push gates g);
    on_subroutine_enter = (fun _ -> ());
    on_subroutine_exit =
      (fun name sub ->
        if not (Circuit.Namespace.mem name !subs) then order := name :: !order;
        subs := Circuit.Namespace.add name sub !subs);
    finish =
      (fun outs ->
        {
          Circuit.main =
            { Circuit.inputs = !inputs; gates = Vec.to_array gates; outputs = outs };
          subs = !subs;
          sub_order = List.rev !order;
        });
  }

(** Drive a sink from a materialized circuit: the same event sequence
    {!Circ.run_streaming} would produce for it — inputs first, then every
    subroutine definition in definition order (innermost-first, hence
    before any call gate naming it), then the main gates in order, then
    [finish] on the outputs. *)
let drive (b : Circuit.b) (s : 'r t) : 'r =
  s.on_inputs b.Circuit.main.Circuit.inputs;
  List.iter
    (fun name -> s.on_subroutine_exit name (Circuit.find_sub b name))
    b.Circuit.sub_order;
  Array.iter s.on_gate b.Circuit.main.Circuit.gates;
  s.finish b.Circuit.main.Circuit.outputs

(* ------------------------------------------------------------------ *)
(* Unboxing adapter                                                    *)

(** [unbox inner]: expand every [Subroutine] call gate into its body's
    gates before handing them to [inner], so [inner] sees the same flat
    gate sequence [Circuit.inline] would produce (up to the names of
    wires internal to calls, which are drawn from a private negative
    counter and so never collide with builder ids). Call controls are
    appended to every controllable body gate, inverse calls replay the
    reversed inverted body — the call semantics of [Circuit.Boxdefs],
    which [Circuit.inline_provenance] expands too. Definitions are
    consumed, not forwarded: the inner sink sees a flat, subroutine-free
    stream. *)
let unbox (inner : 'r t) : 'r t =
  let defs = Circuit.Boxdefs.create () in
  let next = ref (-1) in
  let fresh () =
    let w = !next in
    decr next;
    w
  in
  let rec expand (g : Gate.t) =
    match g with
    | Gate.Subroutine { name; inv; inputs; outputs; controls } ->
        let callee = Circuit.Boxdefs.callee defs name ~inv in
        let rename = Circuit.Boxdefs.renamer ~fresh callee ~inputs ~outputs in
        Array.iter
          (fun g -> expand (Gate.add_controls controls (Gate.rename rename g)))
          callee.Circuit.gates
    | g -> inner.on_gate g
  in
  {
    on_inputs = inner.on_inputs;
    on_gate = expand;
    on_subroutine_enter = (fun _ -> ());
    on_subroutine_exit = Circuit.Boxdefs.define defs;
    finish = inner.finish;
  }
