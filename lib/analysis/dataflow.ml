type direction = Forward | Backward

type graph = {
  nodes : int;
  succs : int -> int list;
  preds : int -> int list;
  rpo : int array;
}

let restrict g ~keep =
  {
    g with
    succs = (fun i -> if keep i then List.filter keep (g.succs i) else []);
    preds = (fun i -> if keep i then List.filter keep (g.preds i) else []);
  }

type stats = { visits : int }

exception Diverged of string

let budget ?max_visits nodes =
  match max_visits with Some m -> m | None -> max 4096 ((nodes + 1) * 256)

let diverged ?name ~visits ~nodes =
  raise
    (Diverged
       (Printf.sprintf
          "%sno fixpoint after %d node visits (%d nodes); transfer function \
           is not monotone or the lattice has unbounded height"
          (match name with
          | Some a -> Printf.sprintf "analysis %s: " a
          | None -> "")
          visits nodes))

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Solver (L : LATTICE) = struct
  type result = { input : L.t array; output : L.t array; stats : stats }

  let solve ?name ?max_visits ~direction ~graph ~empty ~init ~transfer () =
    let n = graph.nodes in
    let sources, dependents =
      match direction with
      | Forward -> (graph.preds, graph.succs)
      | Backward -> (graph.succs, graph.preds)
    in
    let order =
      let a = Array.copy graph.rpo in
      (match direction with
      | Forward -> ()
      | Backward ->
        (* Postorder: dependencies of a backward problem point the other
           way, so seed the worklist sink-first. *)
        let len = Array.length a in
        for i = 0 to (len / 2) - 1 do
          let t = a.(i) in
          a.(i) <- a.(len - 1 - i);
          a.(len - 1 - i) <- t
        done);
      a
    in
    let input = Array.make n empty in
    let output = Array.init n init in
    let inq = Array.make n false in
    let q = Queue.create () in
    Array.iter
      (fun i ->
        Queue.add i q;
        inq.(i) <- true)
      order;
    let budget = budget ?max_visits n in
    let visits = ref 0 in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      inq.(i) <- false;
      incr visits;
      if !visits > budget then diverged ?name ~visits:!visits ~nodes:n;
      let inp =
        match sources i with
        | [] -> empty
        | s :: rest ->
          List.fold_left (fun acc j -> L.join acc output.(j)) output.(s) rest
      in
      input.(i) <- inp;
      let out = transfer i inp in
      if not (L.equal out output.(i)) then begin
        output.(i) <- out;
        List.iter
          (fun j ->
            if not inq.(j) then begin
              Queue.add j q;
              inq.(j) <- true
            end)
          (dependents i)
      end
    done;
    { input; output; stats = { visits = !visits } }
end
