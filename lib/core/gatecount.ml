(** Resource counting: Quipper's [-f gatecount] output format (§5.3.1).

    Counts are *aggregated*: every boxed subcircuit is counted once and its
    per-call cost multiplied by the number of calls, recursively. This is
    the feature that lets the paper count a 30-trillion-gate circuit in
    under two minutes on a laptop (§5.4) — the count is a product over the
    call tree, never an expansion of it. The recursion is {!Resource}'s;
    this module projects its exact {!Wide} vectors to native ints, which
    hold the paper's 3×10^13 comfortably, and raises rather than wraps
    past [max_int].

    A count is keyed by gate kind: the gate's name plus its numbers of
    positive and negative controls, displayed Quipper-style as
    ["Not", controls a+b] (with [a+0] printed as [a]). Comments are not
    gates and are not counted. *)

type key = {
  kind : string;      (** "Not", "H", "Init0", "Term0", "Meas", "W", ... *)
  inverted : bool;
  pos_controls : int;
  neg_controls : int;
}

module Key = struct
  type t = key
  let compare = compare
end

module Counts = Map.Make (Key)

type t = int Counts.t

let empty : t = Counts.empty

let add (k : key) n (t : t) : t =
  Counts.update k (function None -> Some n | Some m -> Some (m + n)) t

(** Forget the quantum/classical split and the order of the controls. *)
let key_of_xkey (x : Resource.Xkey.t) : key =
  let csig = x.Resource.Xkey.csig in
  let p = List.fold_left (fun p (_, positive) -> if positive then p + 1 else p) 0 csig in
  { kind = x.Resource.Xkey.kind; inverted = x.Resource.Xkey.inverted;
    pos_controls = p; neg_controls = List.length csig - p }

let key_of_gate g = Option.map key_of_xkey (Resource.xkey_of_gate g)

let pp_key ppf k =
  let name = if k.inverted then k.kind ^ "*" else k.kind in
  match (k.pos_controls, k.neg_controls) with
  | 0, 0 -> Fmt.pf ppf "%S" name
  | p, 0 -> Fmt.pf ppf "%S, controls %d" name p
  | p, n -> Fmt.pf ppf "%S, controls %d+%d" name p n

(* ------------------------------------------------------------------ *)
(* Native-int projections of the engine's vectors                      *)

let wide_counts (c : Resource.counts) : Wide.t Counts.t =
  Resource.Xmap.fold
    (fun x (w, _) m ->
      Counts.update (key_of_xkey x)
        (function None -> Some w | Some u -> Some (Wide.add u w))
        m)
    c Counts.empty

let int_counts (c : Resource.counts) : t =
  Counts.mapi
    (fun k w ->
      match Wide.to_int_opt w with
      | Some n -> n
      | None -> Resource.to_int (Fmt.str "the count of %a" pp_key k) w)
    (wide_counts c)

(** [aggregate b]: gate counts of [b]'s main circuit with every boxed
    subcircuit recursively inlined — computed without inlining anything. *)
let aggregate (b : Circuit.b) : t =
  int_counts (Resource.of_circuit ~peak:false ~depth:false b).Resource.counts

(** Shallow counts of one circuit (subroutine calls counted as opaque single
    gates named after the subroutine). *)
let shallow (c : Circuit.t) : t =
  Array.fold_left
    (fun acc g ->
      match (g, key_of_gate g) with
      | Gate.Subroutine { name; inv; controls; _ }, _ ->
          let p, n =
            List.fold_left
              (fun (p, n) (c : Gate.control) ->
                if c.positive then (p + 1, n) else (p, n + 1))
              (0, 0) controls
          in
          add
            { kind = "Subroutine:" ^ name; inverted = inv;
              pos_controls = p; neg_controls = n }
            1 acc
      | _, Some k -> add k 1 acc
      | _, None -> acc)
    empty c.Circuit.gates

(* ------------------------------------------------------------------ *)
(* Totals and qubit counts                                             *)

let is_io_kind k =
  match k.kind with
  | "Init0" | "Init1" | "Term0" | "Term1" | "CInit0" | "CInit1" | "CTerm0"
  | "CTerm1" | "Discard" | "CDiscard" | "Meas" -> true
  | _ -> false

let sum what keep (t : t) =
  Resource.to_int what
    (Counts.fold
       (fun k n acc -> if keep k then Wide.add acc (Wide.of_int n) else acc)
       t Wide.zero)

(** Total gates, counting everything (Quipper's "Total gates" line counts
    inits and terminations too; the §6 table separates them). *)
let total (t : t) = sum "the total gate count" (fun _ -> true) t

(** Total excluding initialisation/termination/measurement — the "Total" row
    of the §6 comparison table. *)
let total_logical (t : t) =
  sum "the logical gate count" (fun k -> not (is_io_kind k)) t

let get (t : t) k = match Counts.find_opt k t with Some n -> n | None -> 0

let find_kind (t : t) kind =
  sum ("the count of " ^ kind) (fun k -> k.kind = kind) t

(** Peak number of simultaneously-live wires ("Qubits in circuit"),
    computed hierarchically. *)
let peak_wires (b : Circuit.b) : int =
  (Resource.of_circuit ~counts:false ~depth:false b).Resource.peak

(* ------------------------------------------------------------------ *)
(* Gate classes                                                        *)

type klass = Clifford | T | Rotation | Structural | Classical | Other

let klass_name = function
  | Clifford -> "clifford"
  | T -> "t"
  | Rotation -> "rotation"
  | Structural -> "structural"
  | Classical -> "classical"
  | Other -> "other"

(** Classify a count key for the by-class resource rollup. Structural =
    init/term/discard/measure; Classical = classical logic gates; T and
    Clifford only uncontrolled (plus the standard one-control Cliffords:
    CNOT, CZ, CY, controlled-swap excluded); rotations stay rotations
    under controls; everything else — including multiply-controlled
    gates awaiting decomposition — is Other. *)
let class_of_key (k : key) : klass =
  if is_io_kind k then Structural
  else if String.length k.kind > 6 && String.sub k.kind 0 6 = "CGate:" then
    Classical
  else
    let controls = k.pos_controls + k.neg_controls in
    match k.kind with
    | "T" when controls = 0 -> T
    | "Not" | "X" -> if controls <= 1 then Clifford else Other
    | "Y" | "Z" -> if controls <= 1 then Clifford else Other
    | "H" | "S" | "swap" -> if controls = 0 then Clifford else Other
    | "Rz" | "Rx" | "R" | "Ph" | "exp(-i%Z)" | "GPhase" -> Rotation
    | _ -> Other

(* ------------------------------------------------------------------ *)
(* Summary record and printing, in Quipper's output format             *)

type summary = {
  counts : t;
  total : int;
  total_logical : int;
  inputs : int;
  outputs : int;
  qubits : int;
}

let summary_of (v : Resource.t) : summary =
  let counts = int_counts v.Resource.counts in
  {
    counts;
    total = total counts;
    total_logical = total_logical counts;
    inputs = v.Resource.in_arity;
    outputs = v.Resource.out_arity;
    qubits = v.Resource.peak;
  }

let summarize (b : Circuit.b) : summary =
  summary_of (Resource.of_circuit ~depth:false b)

let pp ppf (t : t) =
  Counts.iter (fun k n -> Fmt.pf ppf "%d: %a@\n" n pp_key k) t

let pp_summary ppf (s : summary) =
  Fmt.pf ppf "Aggregated gate count:@\n%a" pp s.counts;
  Fmt.pf ppf "Total gates: %d@\n" s.total;
  Fmt.pf ppf "Inputs: %d@\n" s.inputs;
  Fmt.pf ppf "Outputs: %d@\n" s.outputs;
  Fmt.pf ppf "Qubits in circuit: %d@\n" s.qubits
