(** Circuit depth: the engine's clock, projected to a native int. *)

let depth (b : Circuit.b) : int =
  Resource.to_int "the depth"
    (Resource.of_circuit ~counts:false ~peak:false b).Resource.depth
