let bits_per_word = 62
let words_for top = (top / bits_per_word) + 1

let get bits off k =
  bits.(off + (k / bits_per_word)) land (1 lsl (k mod bits_per_word)) <> 0

let set bits off k =
  let j = off + (k / bits_per_word) in
  bits.(j) <- bits.(j) lor (1 lsl (k mod bits_per_word))

let clear bits off k =
  let j = off + (k / bits_per_word) in
  bits.(j) <- bits.(j) land lnot (1 lsl (k mod bits_per_word))

let union_into dst doff src soff words =
  for w = 0 to words - 1 do
    dst.(doff + w) <- dst.(doff + w) lor src.(soff + w)
  done

let inter_into dst doff src soff words =
  for w = 0 to words - 1 do
    dst.(doff + w) <- dst.(doff + w) land src.(soff + w)
  done

type meet = Union | Inter

type result = { input : int array; output : int array; stats : Dataflow.stats }

let solve ?name ?max_visits ~direction ~meet ~graph ~words ~gen ~kill ~init () =
  let n = graph.Dataflow.nodes in
  let sources, dependents =
    match direction with
    | Dataflow.Forward -> (graph.preds, graph.succs)
    | Dataflow.Backward -> (graph.succs, graph.preds)
  in
  let combine = match meet with Union -> union_into | Inter -> inter_into in
  let input = Array.make (n * words) 0 in
  let output = Array.make (n * words) 0 in
  for i = 0 to n - 1 do
    Array.blit init 0 output (i * words) words
  done;
  (* The worklist of [Dataflow.Solver]: seeded in reverse postorder
     (postorder for a backward problem), FIFO, a node queued at most once
     at a time.  The ring holds the seed plus one entry per node. *)
  let seed = graph.rpo in
  let len_seed = Array.length seed in
  let cap = len_seed + n + 1 in
  let ring = Array.make cap 0 in
  let head = ref 0 and len = ref 0 in
  let inq = Array.make n false in
  let push i =
    ring.((!head + !len) mod cap) <- i;
    incr len;
    inq.(i) <- true
  in
  (match direction with
  | Dataflow.Forward -> Array.iter push seed
  | Dataflow.Backward ->
    for k = len_seed - 1 downto 0 do
      push seed.(k)
    done);
  let rec enqueue = function
    | [] -> ()
    | j :: rest ->
      if not inq.(j) then push j;
      enqueue rest
  in
  let budget = Dataflow.budget ?max_visits n in
  let visits = ref 0 in
  while !len > 0 do
    let i = ring.(!head) in
    head := (!head + 1) mod cap;
    decr len;
    inq.(i) <- false;
    incr visits;
    if !visits > budget then Dataflow.diverged ?name ~visits:!visits ~nodes:n;
    let off = i * words in
    (match sources i with
    | [] -> Array.fill input off words 0
    | s :: rest ->
      Array.blit output (s * words) input off words;
      List.iter (fun j -> combine input off output (j * words) words) rest);
    let changed = ref false in
    for w = off to off + words - 1 do
      let v = gen.(w) lor (input.(w) land lnot kill.(w)) in
      if v <> output.(w) then begin
        output.(w) <- v;
        changed := true
      end
    done;
    if !changed then enqueue (dependents i)
  done;
  { input; output; stats = { Dataflow.visits = !visits } }
