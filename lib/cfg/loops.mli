(** Natural loops and flow-graph reducibility. *)

module Int_set : Set.S with type elt = int

type loop = {
  header : int;
  body : Int_set.t;  (** includes the header *)
}

(** Edges [u -> v] where [v] dominates [u]. *)
val back_edges : Cfg.t -> Dom.t -> (int * int) list

(** Natural loops of the graph, one per header (loops sharing a header are
    merged, as is standard). *)
val natural_loops : Cfg.t -> Dom.t -> loop list

(** Loops ordered by increasing body size, so inner loops come first. *)
val innermost_first : loop list -> loop list

(** The loop forest, innermost first, after a preheader edit of [loop]
    ({!Cfg.insert_preheader}, [added] blocks at [loop.header]).  Equal
    to [innermost_first (natural_loops g dom)] on the edited graph. *)
val insert_preheader : loop list -> loop:loop -> added:int -> loop list

(** A graph is reducible iff deleting all dominator back edges leaves it
    acyclic (considering reachable blocks only). *)
val is_reducible : Cfg.t -> Dom.t -> bool

(** The part of the graph {!Dom.splice} recomputed is reducible: every
    retreating edge of its search ends in a dominator of its source.
    When the graph was reducible before the splice, this is the
    reducibility of the edited graph. *)
val region_reducible : Dom.t -> Dom.region -> bool

(** The innermost loop containing block [i], if any. *)
val enclosing_loop : loop list -> int -> loop option

(** Exit edges [(u, v)] with [u] in the loop and [v] outside. *)
val exit_edges : Cfg.t -> loop -> (int * int) list
