type ('k, 'v) t = { size : int; mutable entries : ('k * 'v) list }

let create ?(size = 8) () = { size; entries = [] }

let add t k v =
  let kept =
    if List.length t.entries >= t.size then
      List.filteri (fun i _ -> i < t.size - 1) t.entries
    else t.entries
  in
  t.entries <- (k, v) :: kept

let find t k compute =
  match List.assq_opt k t.entries with
  | Some v -> v
  | None ->
    let v = compute k in
    add t k v;
    v
