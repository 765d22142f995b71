(** A keyed memo shared between domains: the one cache mechanism behind
    Fuse's compiled box programs, Stream_opt's skeleton memo and the shot
    service's request and template caches.

    Each key is computed once, however many domains race for it: the
    first caller marks the key in flight and computes outside the lock,
    the others wait until it settles and then take the stored value as a
    hit. A computation that raises re-raises in its caller, clears its
    mark and wakes the waiters, so the next caller computes again; a
    failure never wedges a key. A domain that asks for a key it is itself
    computing gets [Invalid_argument] instead of waiting on itself.

    With a capacity, inserting into a full memo first evicts the least
    recently used entries (each hit or insertion stamps its entry with a
    logical clock; eviction removes the minimum stamp). *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** An empty memo, unbounded by default. Raises [Invalid_argument] if
    [capacity < 1]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v * bool
(** [find_or_compute m k f] is the value stored for [k], computing and
    storing [f ()] on a miss; the flag is [true] on a hit. Keys compare
    with structural equality and hash with [Hashtbl.hash]. *)

type stats = {
  hits : int;
  misses : int;  (** computations started, including failed ones *)
  evictions : int;
  entries : int;
}

val stats : ('k, 'v) t -> stats
