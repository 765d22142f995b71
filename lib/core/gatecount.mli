(** Resource counting in Quipper's [-f gatecount] format (paper §5.3.1).

    Counts are {e aggregated}: every boxed subcircuit is counted once and
    its per-call cost multiplied by the number of calls, recursively —
    the count is a product over the call tree, never an expansion of it.
    This is what lets the paper count a 30-trillion-gate circuit in under
    two minutes (§5.4). The recursion is {!Resource}'s; everything here
    is a native-int projection of its vectors. OCaml's 63-bit ints hold
    the paper's 3x10^13 comfortably; past [max_int] every projection
    raises {!Errors.Error} [(Invalid _)] instead of wrapping (the
    message names [--estimate], whose {!Wide} figures are exact). *)

type key = {
  kind : string;
      (** Quipper's gate-kind names: ["Not"], ["H"], ["Init0"], ["Term0"],
          ["Meas"], ["W"], ["exp(-i%Z)"], ... *)
  inverted : bool;
  pos_controls : int;
  neg_controls : int;
}

module Key : sig
  type t = key

  val compare : t -> t -> int
end

module Counts : Map.S with type key = Key.t

type t = int Counts.t

val key_of_gate : Gate.t -> key option

val key_of_xkey : Resource.Xkey.t -> key
(** Forget the quantum/classical split and the order of the controls. *)

val wide_counts : Resource.counts -> Wide.t Counts.t
(** A vector's counts, projected to keys but still exact. *)

val aggregate : Circuit.b -> t
(** Gate counts of the main circuit with every boxed subcircuit
    recursively inlined — computed without inlining anything. A call
    under extra controls contributes its body's counts with those
    controls added to every controllable gate. *)

val shallow : Circuit.t -> t
(** Counts of one circuit, subroutine calls as opaque single gates. *)

val total : t -> int

val total_logical : t -> int
(** Total excluding initialisation / termination / measurement — the
    "Total" row of the paper's §6 table. *)

val get : t -> key -> int
val find_kind : t -> string -> int

val is_io_kind : key -> bool
(** Initialisation / termination / discard / measurement kinds — the
    keys [total_logical] excludes. *)

(** A coarse classification of count keys for by-class resource rollups
    (the axis resource-estimation tables are quoted on): Clifford gates,
    T gates, parameterised rotations, structural (init/term/discard/
    measure), classical logic, and everything else — including
    multiply-controlled gates awaiting decomposition. *)
type klass = Clifford | T | Rotation | Structural | Classical | Other

val klass_name : klass -> string
val class_of_key : key -> klass

val peak_wires : Circuit.b -> int
(** Peak number of simultaneously-live wires ("Qubits in circuit"),
    computed hierarchically. *)

type summary = {
  counts : t;
  total : int;
  total_logical : int;
  inputs : int;
  outputs : int;
  qubits : int;
}

val summary_of : Resource.t -> summary
(** The projection of a vector's counts and peak. The per-box section
    of Quipper's [-f gatecount] output ("a gate count for each boxed
    subcircuit", §5.3.1) is this projection of each box's vector from
    {!Resource.report} or [Sink.report]: the same run that counts the
    whole circuit, each box's own calls expanded and its peak counted
    from its inputs. *)

val summarize : Circuit.b -> summary

val pp_key : Format.formatter -> key -> unit
(** Quipper's format: [ "Not", controls 1+1 ] (and [a+0] printed [a]). *)

val pp : Format.formatter -> t -> unit
val pp_summary : Format.formatter -> summary -> unit
