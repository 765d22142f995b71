(* [inflight] maps each key being computed to the computing domain;
   [settled] is broadcast whenever a computation ends, either way. A
   slot's [tick] is the memo's clock at its last use. *)
type 'v slot = { v : 'v; mutable tick : int }

type ('k, 'v) t = {
  tbl : ('k, 'v slot) Hashtbl.t;
  inflight : ('k, Domain.id) Hashtbl.t;
  capacity : int option;
  lock : Mutex.t;
  settled : Condition.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; evictions : int; entries : int }

let create ?capacity () =
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Memo.create: capacity < 1"
  | _ -> ());
  {
    tbl = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    capacity;
    lock = Mutex.create ();
    settled = Condition.create ();
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* The rest runs with [lock] held. *)

let tick m =
  m.clock <- m.clock + 1;
  m.clock

(* A linear min-scan is O(capacity) but runs only on insertion into a
   full memo, where the computation that produced the value dwarfs it. *)
let evict_min m =
  let victim =
    Hashtbl.fold
      (fun k s acc ->
        match acc with
        | Some (_, best) when best <= s.tick -> acc
        | _ -> Some (k, s.tick))
      m.tbl None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove m.tbl k;
      m.evictions <- m.evictions + 1)
    victim

let insert m key v =
  Option.iter
    (fun cap ->
      while Hashtbl.length m.tbl >= cap do
        evict_min m
      done)
    m.capacity;
  Hashtbl.replace m.tbl key { v; tick = tick m }

let settle m key =
  Hashtbl.remove m.inflight key;
  Condition.broadcast m.settled;
  Mutex.unlock m.lock

let find_or_compute m key f =
  Mutex.lock m.lock;
  let rec acquire () =
    match Hashtbl.find_opt m.tbl key with
    | Some s ->
        m.hits <- m.hits + 1;
        s.tick <- tick m;
        Mutex.unlock m.lock;
        Some s.v
    | None -> (
        match Hashtbl.find_opt m.inflight key with
        | Some d when d = Domain.self () ->
            Mutex.unlock m.lock;
            invalid_arg "Memo.find_or_compute: key depends on itself"
        | Some _ ->
            Condition.wait m.settled m.lock;
            acquire ()
        | None ->
            m.misses <- m.misses + 1;
            Hashtbl.replace m.inflight key (Domain.self ());
            Mutex.unlock m.lock;
            None)
  in
  match acquire () with
  | Some v -> (v, true)
  | None -> (
      match f () with
      | v ->
          Mutex.lock m.lock;
          insert m key v;
          settle m key;
          (v, false)
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          Mutex.lock m.lock;
          settle m key;
          Printexc.raise_with_backtrace e bt)

let stats m =
  Mutex.protect m.lock (fun () ->
      {
        hits = m.hits;
        misses = m.misses;
        evictions = m.evictions;
        entries = Hashtbl.length m.tbl;
      })
