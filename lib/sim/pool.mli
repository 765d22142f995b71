(** The process-wide worker pool behind every parallel fan-out: the
    kernel split above {!Kernel.threshold} and the shot service's batch
    and sweep fan-out.

    Worker domains start lazily on the first call that wants them and
    live for the process. There are at most
    [Domain.recommended_domain_count () - 1] of them, so the pool never
    approaches OCaml's domain limit however wide a fan-out asks to be,
    and the caller always takes part: it claims tasks from the same
    atomic counter as the workers instead of idling until they finish.

    Which domain runs a task is scheduling, never semantics: callers
    pick their own task boundaries, and results must depend only on the
    task index.

    An idle worker still takes part in every stop-the-world minor
    collection, so once the pool has started, allocation-heavy code on
    any domain runs a few percent slower than in a single-domain
    process. *)

val run : domains:int -> int -> (int -> unit) -> unit
(** [run ~domains n f] runs [f 0], ..., [f (n-1)], each exactly once, on
    the calling domain and up to [domains - 1] pool workers, and returns
    when all have finished. Tasks must touch disjoint state.

    A task may itself call [run]: the nested caller claims its own tasks
    and only ever waits on tasks another domain is already running, so
    nested fan-out cannot deadlock. If tasks raise, the first exception
    (with its backtrace) is re-raised in the caller once no task is
    running; tasks after the failing one may or may not have run. The
    pool stays usable afterwards. *)

val runs : unit -> int
(** How many times {!run} has been called in this process, whether or
    not workers took part: the number of fan-outs, which tests read to
    check when a kernel splits. *)
