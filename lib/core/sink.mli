(** Streaming circuit consumers: fold over the gate stream as it is
    emitted, instead of over a stored circuit.

    This recovers, in a strict language, what the paper gets from
    Haskell's laziness (§5.4): resource analyses and executions whose
    memory is independent of circuit size. A ['r t] packages the
    callbacks of one circuit-construction run — inputs, gates in
    emission order, subroutine-definition events — plus a [finish] run
    on the final outputs. Drive one with {!Circ.run_streaming}.

    Event order matches the buffering run: [on_inputs] once, then gates
    in the order the buffer would record them; [on_subroutine_exit name
    sub] fires when the body of box [name] has been captured, always
    before the first [Subroutine] call gate naming it, with nested
    definitions completing innermost-first (the order of
    [Circuit.b.sub_order]). *)

type 'r t = {
  on_inputs : Wire.endpoint list -> unit;
  on_gate : Gate.t -> unit;
  on_subroutine_enter : string -> unit;
  on_subroutine_exit : string -> Circuit.subroutine -> unit;
  finish : Wire.endpoint list -> 'r;
}

val make :
  ?on_inputs:(Wire.endpoint list -> unit) ->
  ?on_gate:(Gate.t -> unit) ->
  ?on_subroutine_enter:(string -> unit) ->
  ?on_subroutine_exit:(string -> Circuit.subroutine -> unit) ->
  finish:(Wire.endpoint list -> 'r) ->
  unit ->
  'r t
(** A sink from callbacks; omitted callbacks ignore their events. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val tee : 'a t -> 'b t -> ('a * 'b) t
(** Feed one generation pass to two sinks; [finish] runs left first. *)

val resource :
  ?counts:bool -> ?peak:bool -> ?depth:bool -> unit -> Resource.t t
(** The streaming step of {!Resource}, running the selected parts (all
    by default); equal to [Resource.of_circuit] of the materialized
    circuit. Subroutine calls cost O(1) amortized; memory is bounded by
    distinct gate kinds, live wires and the namespace. *)

val report : unit -> (Resource.t * (string * Resource.t) list) t
(** One walk of every part, read as {!Resource.report} reads a
    materialized circuit: the whole vector and each defined box's, in
    definition order. *)

val gatecount : unit -> Gatecount.summary t
(** [resource] without the depth clock, projected by
    {!Gatecount.summary_of}: identical (including the peak-wires figure)
    to [Gatecount.summarize] of the materialized circuit. *)

val depth : unit -> int t
(** [resource] with the depth clock alone, identical to [Depth.depth] of
    the materialized circuit. *)

val summary_depth : unit -> (Gatecount.summary * int) t
(** One [resource] walk projected to both: equal to [tee (gatecount ())
    (depth ())] (raising alike, the summary first), at the cost of one
    walk instead of two. *)

val printer : Format.formatter -> unit t
(** Streaming text output, byte-identical to [Printer.pp_bcircuit] of
    the materialized circuit. Gate lines stream; subroutine definition
    blocks are held and printed after the outputs line. The formatter is
    flushed by [finish]. *)

val gates : unit -> Gate.t list t
(** Record the raw gate stream (tests; O(gates) memory by design). *)

val circuit : unit -> Circuit.b t
(** The collecting sink: rebuild a [Circuit.b] from the event stream
    (inputs, gates, definitions in arrival order, outputs). Feeding a
    circuit through a sink transformer into [circuit ()] materializes the
    transformed circuit. O(gates) memory by design. *)

val drive : Circuit.b -> 'r t -> 'r
(** Replay a materialized circuit as the event stream
    {!Circ.run_streaming} would produce for it: [on_inputs], then every
    definition in [sub_order] (before any call gate naming it), then the
    main gates in order, then [finish] on the outputs.
    [drive b (circuit ())] rebuilds [b]. *)

val unbox : 'r t -> 'r t
(** Expand every [Subroutine] call gate into its body before handing
    gates to the inner sink, which therefore sees the flat gate sequence
    of [Circuit.inline] (wires internal to calls are renamed from a
    private negative counter, so they never collide with builder wire
    ids). Inverse calls replay the reversed inverted body; call controls
    attach to every controllable body gate. Definitions are consumed,
    not forwarded. Needed for sinks without hierarchical semantics —
    notably simulation. *)
