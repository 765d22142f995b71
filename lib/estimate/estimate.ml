(** Symbolic resource estimation: the combinators and readers over the
    vectors of {!Resource} — see the interface for the exactness
    contract. Deriving a vector is the engine's walk; this module only
    composes vectors and reads them. *)

open Quipper

type t = Resource.t

module Xmap = Resource.Xmap

let of_circuit b = Resource.of_circuit b
let sink () = Sink.resource ()
let of_circ ~in_ f = fst (Circ.run_streaming ~in_ f (sink ()))
let of_circ_unit c = fst (Circ.run_streaming_unit c (sink ()))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let in_arity (v : t) = v.in_arity
let out_arity (v : t) = v.out_arity
let peak_wires (v : t) = v.peak
let depth_bound (v : t) = v.depth
let to_counts (v : t) = Gatecount.wide_counts v.counts
let counts v = Gatecount.Counts.bindings (to_counts v)

let sum keep (v : t) =
  Xmap.fold
    (fun x (w, _) acc -> if keep x then Wide.add acc w else acc)
    v.counts Wide.zero

let sum_keys keep = sum (fun x -> keep (Gatecount.key_of_xkey x))
let total = sum (fun _ -> true)
let total_logical = sum_keys (fun k -> not (Gatecount.is_io_kind k))

let t_count =
  sum (fun x -> x.Resource.Xkey.kind = "T" && x.Resource.Xkey.csig = [])

let by_class v =
  List.map
    (fun c -> (c, sum_keys (fun k -> Gatecount.class_of_key k = c) v))
    Gatecount.[ Clifford; T; Rotation; Structural; Classical; Other ]

let equal (a : t) (b : t) =
  Xmap.equal (fun (w, _) (u, _) -> Wide.equal w u) a.counts b.counts
  && a.in_arity = b.in_arity && a.out_arity = b.out_arity && a.peak = b.peak
  && Wide.equal a.depth b.depth

let agrees (v : t) (s : Gatecount.summary) =
  let proj = to_counts v in
  Gatecount.Counts.cardinal proj = Gatecount.Counts.cardinal s.Gatecount.counts
  && Gatecount.Counts.for_all
       (fun k w -> Wide.equal_int w (Gatecount.get s.Gatecount.counts k))
       proj
  && Wide.equal_int (total v) s.Gatecount.total
  && Wide.equal_int (total_logical v) s.Gatecount.total_logical
  && v.in_arity = s.Gatecount.inputs
  && v.out_arity = s.Gatecount.outputs
  && v.peak = s.Gatecount.qubits

let pp_summary ppf (v : t) =
  (* the [Gatecount.pp_summary] block first (same field order, decimal
     counts of any width), then the symbolic-only lines *)
  Fmt.pf ppf "Aggregated gate count:@\n";
  Gatecount.Counts.iter
    (fun k w -> Fmt.pf ppf "%a: %a@\n" Wide.pp w Gatecount.pp_key k)
    (to_counts v);
  Fmt.pf ppf "Total gates: %a@\n" Wide.pp (total v);
  Fmt.pf ppf "Inputs: %d@\n" v.in_arity;
  Fmt.pf ppf "Outputs: %d@\n" v.out_arity;
  Fmt.pf ppf "Qubits in circuit: %d@\n" v.peak;
  Fmt.pf ppf "Depth bound: %a@\n" Wide.pp v.depth;
  Fmt.pf ppf "T-count: %a@\n" Wide.pp (t_count v);
  Fmt.pf ppf "Logical gates: %a@\n" Wide.pp (total_logical v);
  Fmt.pf ppf "By class:";
  List.iter
    (fun (c, w) ->
      if not (Wide.is_zero w) then
        Fmt.pf ppf " %s %a" (Gatecount.klass_name c) Wide.pp w)
    (by_class v);
  Fmt.pf ppf "@\n"

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)

let with_terms terms (v : t) = { v with counts = Resource.view terms; terms }

let seq (a : t) (b : t) : t =
  if a.out_arity <> b.in_arity then
    invalid_arg
      (Printf.sprintf "Estimate.seq: arity mismatch (%d outputs vs %d inputs)"
         a.out_arity b.in_arity);
  {
    (with_terms (Resource.append a.terms b.terms) a) with
    out_arity = b.out_arity;
    (* at the seam exactly [a.out_arity = b.in_arity] wires are live —
       the baseline both peaks are measured from — so the combined peak
       is the max, the same reach argument as a subroutine call's *)
    peak = max a.peak b.peak;
    depth = Wide.add a.depth b.depth;
  }

let repeat n (v : t) : t =
  if n < 0 then invalid_arg "Estimate.repeat: negative count";
  if v.in_arity <> v.out_arity then
    invalid_arg
      (Printf.sprintf
         "Estimate.repeat: input arity %d <> output arity %d (the block must \
          be arity-preserving to iterate)"
         v.in_arity v.out_arity);
  if n = 0 then
    { (with_terms (Resource.flat Xmap.empty) v) with depth = Wide.zero; peak = v.in_arity }
  else { (with_terms (Resource.scale n v.terms) v) with depth = Wide.mul_int v.depth n }

let inverse (v : t) : t =
  { (with_terms (Resource.reverse v.terms) v) with in_arity = v.out_arity; out_arity = v.in_arity }

let controlled ?(pos = 0) ?(neg = 0) (v : t) : t =
  if pos < 0 || neg < 0 then
    invalid_arg "Estimate.controlled: negative control count";
  if pos + neg = 0 then v
  else begin
    let v' = with_terms (Resource.control (pos, neg, 0, 0) v.terms) v in
    (* controls serialize every gate they attach to, so the only sound
       cheap depth bound for the controlled block is its gate total *)
    { v' with depth = Wide.max_ v.depth (total v') }
  end

(* One gate kind's expansion into a base: the engine's vector of the
   gadget, on the wires [rep] touches (its peak minus those is the
   ancilla overhead). [None] when [rep] is already in the base. *)
let gadget base (rep : Gate.t) =
  let next = ref (1 + Resource.max_wire_of rep) in
  let alloc (_ : Wire.ty) =
    let w = !next in
    incr next;
    w
  in
  match Decompose.expand base ~alloc rep with
  | [ g ] when g == rep -> None
  | gs ->
      let inputs =
        List.sort_uniq
          (fun (a : Wire.endpoint) b -> Int.compare a.Wire.wire b.Wire.wire)
          (Gate.wires rep)
      in
      Some
        (Resource.of_circuit
           (Circuit.of_main
              { Circuit.inputs; gates = Array.of_list gs; outputs = [] }),
         List.length inputs)

let in_base base (v : t) : t =
  let counts, maxd, maxe =
    Xmap.fold
      (fun x (w, rep) (acc, maxd, maxe) ->
        match gadget base rep with
        | None -> (Resource.bump x w rep acc, maxd, maxe)
        | Some ((gv : t), live) ->
            ( Xmap.fold
                (fun k (m, g) acc -> Resource.bump k (Wide.mul w m) g acc)
                gv.counts acc,
              max maxd (Resource.to_int "a gadget's depth" gv.depth),
              max maxe (gv.peak - live) ))
      v.counts
      (Xmap.empty, 1, 0)
  in
  {
    (with_terms (Resource.flat counts) v) with
    peak = v.peak + maxe;
    depth = Wide.mul_int v.depth maxd;
  }
