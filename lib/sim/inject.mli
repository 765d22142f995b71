(** Single-fault Pauli injection: enumerate every fault site of a circuit
    ({!Quipper.Faultsite}), inject X/Y/Z at each, re-run, and classify
    the outcome — measuring how much protection assertive termination
    (paper §4.2.2) actually buys.

    Every entry point takes the backend; injected Paulis are Clifford
    operations, so stabilizer-gate-set circuits can run campaigns on the
    polynomial-time Clifford backend, with states compared by canonical
    stabilizer form. A campaign is {!Frame.campaign}'s lane loop under
    its one engine rule (see {!Noise}): findings are the same under
    every engine. *)

open Quipper

type pauli = X | Y | Z

val pauli_name : pauli -> string
val all_paulis : pauli list

type outcome =
  | Detected  (** a [Termination_assertion] fired during the faulty run *)
  | Corrupted  (** completed, but the output state differs: silent damage *)
  | Masked  (** output state unchanged (up to global phase) *)
  | Errored of string
      (** the faulty run raised something other than
          [Termination_assertion]; recorded and skipped so one bad fault
          never loses an exhaustive sweep *)

val outcome_name : outcome -> string

type finding = { site : Faultsite.site; fault : pauli; outcome : outcome }

type report = {
  gates : int;
  sites : int;
  faults : int;
  detected : int;
  corrupted : int;
  masked : int;
  errored : int;  (** slow-path classifications that raised; see {!outcome} *)
  frame_faults : int;  (** faults classified by the Pauli-frame engine *)
  slow_faults : int;  (** faults classified by full re-simulation *)
  fallback_reasons : string list;
      (** why frame lanes (or the whole campaign) fell back, each naming
          the offending gate/wire *)
  findings : finding list;
}

val run_site_on :
  (module Backend.S) ->
  ?seed:int ->
  Circuit.b ->
  bool list ->
  Faultsite.site ->
  pauli ->
  outcome
(** Inject one fault at one site on the given backend and classify it
    against the clean run (same seed, so measurements draw identically). *)

val report_on :
  (module Backend.S) ->
  ?seed:int ->
  ?paulis:pauli list ->
  ?engine:Engine.t ->
  Circuit.b ->
  bool list ->
  report
(** Exhaustive single-fault campaign on the given backend, over every
    site and every Pauli in [paulis] (default all three). The circuit is
    inlined and its clean reference run computed once per campaign, not
    once per fault. A clean run that raises does not abort the campaign:
    every fault is [Errored] with its text ([Detected] if it was a
    termination assertion). *)

val pp_report : Format.formatter -> report -> unit
