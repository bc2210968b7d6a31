type reason = Wall_clock | Fuel | Growth

exception Exhausted of reason

let reason_name = function
  | Wall_clock -> "wall-clock"
  | Fuel -> "fuel"
  | Growth -> "growth"

type t = {
  deadline : float option;  (* absolute Unix.gettimeofday time *)
  fuel : int option;
  growth : int option;  (* percent of the input size replication may add *)
}

let make ?deadline ?fuel ?growth () =
  {
    deadline = Option.map (fun s -> Unix.gettimeofday () +. s) deadline;
    fuel;
    growth;
  }

let unlimited = make ()
let fuel t = t.fuel
let growth t = t.growth
let check t =
  match t.deadline with
  | Some d when Unix.gettimeofday () > d -> raise (Exhausted Wall_clock)
  | _ -> ()
