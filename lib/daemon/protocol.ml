(* The jumprepd wire protocol: length-prefixed Telemetry.Json frames over
   a Unix-domain socket.

   Frame   = one [Harness.Frame] frame (4-byte big-endian length, then
             one JSON document).  The codec lives below this layer
             because the worker pool frames its pipes the same way.
   Request = one envelope object per frame (see [envelope_of_json]).
   Reply   = zero or more telemetry frames, then exactly one result or
             error frame carrying the request's id. *)

module Json = Telemetry.Json

(* --- requests --- *)

type qos = {
  deadline : float option;
  wall_budget : float option;
  growth_budget : int option;
  retries : int;
  chaos : Harness.Pool.chaos option;
  telemetry : bool;
}

let default_qos =
  {
    deadline = None;
    wall_budget = None;
    growth_budget = None;
    retries = 0;
    chaos = None;
    telemetry = false;
  }

type request =
  | Compile of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Measure of {
      path : string;
      source : string;
      input : string;
      machine : Ir.Machine.t;
    }
  | Lint of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Explain of {
      path : string;
      source : string;
      level : Opt.Driver.level;
      machine : Ir.Machine.t;
    }
  | Fuzz of { seeds : int; start : int; max_steps : int }
  | Status
  | Ping
  | Drain

type envelope = { id : int; qos : qos; req : request }

let kind_name = function
  | Compile _ -> "compile"
  | Measure _ -> "measure"
  | Lint _ -> "lint"
  | Explain _ -> "explain"
  | Fuzz _ -> "fuzz"
  | Status -> "status"
  | Ping -> "ping"
  | Drain -> "drain"

let qos_to_json q =
  let fields = [] in
  let fields =
    if q.telemetry then ("telemetry", Json.Bool true) :: fields else fields
  in
  let fields =
    match q.chaos with
    | Some c ->
      ( "chaos",
        Json.Str
          (Printf.sprintf "crash:%g,hang:%g,alloc:%g,seed:%d" c.crash c.hang
             c.alloc c.chaos_seed) )
      :: fields
    | None -> fields
  in
  let fields =
    if q.retries <> 0 then ("retries", Json.Int q.retries) :: fields else fields
  in
  let fields =
    match q.growth_budget with
    | Some g -> ("growth_budget", Json.Int g) :: fields
    | None -> fields
  in
  let fields =
    match q.wall_budget with
    | Some w -> ("wall_budget", Json.Float w) :: fields
    | None -> fields
  in
  let fields =
    match q.deadline with
    | Some d -> ("deadline", Json.Float d) :: fields
    | None -> fields
  in
  Json.Obj fields

let envelope_to_json e =
  let base =
    [ ("id", Json.Int e.id); ("kind", Json.Str (kind_name e.req)) ]
  in
  let qos =
    match qos_to_json e.qos with Json.Obj [] -> [] | q -> [ ("qos", q) ]
  in
  let body =
    match e.req with
    | Compile { path; source; level; machine } ->
      [
        ("path", Json.Str path);
        ("source", Json.Str source);
        ("level", Json.Str (Opt.Driver.level_name level));
        ("machine", Json.Str machine.Ir.Machine.short);
      ]
    | Measure { path; source; input; machine } ->
      [
        ("path", Json.Str path);
        ("source", Json.Str source);
        ("input", Json.Str input);
        ("machine", Json.Str machine.Ir.Machine.short);
      ]
    | Lint { path; source; level; machine }
    | Explain { path; source; level; machine } ->
      [
        ("path", Json.Str path);
        ("source", Json.Str source);
        ("level", Json.Str (Opt.Driver.level_name level));
        ("machine", Json.Str machine.Ir.Machine.short);
      ]
    | Fuzz { seeds; start; max_steps } ->
      [
        ("seeds", Json.Int seeds);
        ("start", Json.Int start);
        ("max_steps", Json.Int max_steps);
      ]
    | Status | Ping | Drain -> []
  in
  Json.Obj (base @ body @ qos)

(* Strict field readers: a missing or mistyped field is a [Bad_request],
   never an exception. *)
let str_field j name =
  match Option.bind (Json.member name j) Json.get_string with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string %S field" name)

let int_field ?default j name =
  match Json.member name j with
  | None -> (
    match default with
    | Some d -> Ok d
    | None -> Error (Printf.sprintf "missing %S field" name))
  | Some v -> (
    match Json.get_int v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "non-integer %S field" name))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let level_of_json j =
  let* s = str_field j "level" in
  match Opt.Driver.level_of_string s with
  | Some l -> Ok l
  | None -> Error (Printf.sprintf "unknown level %S" s)

let machine_of_json j =
  let* s = str_field j "machine" in
  match Ir.Machine.of_short s with
  | Some m -> Ok m
  | None -> Error (Printf.sprintf "unknown machine %S" s)

let qos_of_json j =
  match Json.member "qos" j with
  | None -> Ok default_qos
  | Some q ->
    let float_field name =
      match Json.member name q with
      | None -> Ok None
      | Some v -> (
        match Json.get_float v with
        | Some f when f > 0. -> Ok (Some f)
        | Some _ -> Error (Printf.sprintf "%S must be positive" name)
        | None -> Error (Printf.sprintf "non-numeric %S field" name))
    in
    let* deadline = float_field "deadline" in
    let* wall_budget = float_field "wall_budget" in
    let* growth_budget =
      match Json.member "growth_budget" q with
      | None -> Ok None
      | Some v -> (
        match Json.get_int v with
        | Some g when g >= 0 -> Ok (Some g)
        | _ -> Error "non-negative integer \"growth_budget\" expected")
    in
    let* retries = int_field ~default:0 q "retries" in
    let* chaos =
      match Json.member "chaos" q with
      | None -> Ok None
      | Some v -> (
        match Json.get_string v with
        | None -> Error "non-string \"chaos\" field"
        | Some s -> (
          match Harness.Pool.chaos_of_string s with
          | Ok c -> Ok (Some c)
          | Error e -> Error e))
    in
    let telemetry =
      Option.bind (Json.member "telemetry" q) Json.get_bool
      |> Option.value ~default:false
    in
    if retries < 0 || retries > 10 then Error "\"retries\" must be in 0..10"
    else Ok { deadline; wall_budget; growth_budget; retries; chaos; telemetry }

let envelope_of_json j =
  match j with
  | Json.Obj _ ->
    let* id = int_field j "id" in
    if id <= 0 then Error "\"id\" must be a positive integer"
    else
      let* kind = str_field j "kind" in
      let* qos = qos_of_json j in
      let source_req make =
        let* path = str_field j "path" in
        let* source = str_field j "source" in
        if String.length source > Harness.Frame.max_frame / 2 then Error "oversized source"
        else make path source
      in
      let* req =
        match kind with
        | "compile" ->
          source_req (fun path source ->
              let* level = level_of_json j in
              let* machine = machine_of_json j in
              Ok (Compile { path; source; level; machine }))
        | "measure" ->
          source_req (fun path source ->
              let* machine = machine_of_json j in
              let input =
                Option.bind (Json.member "input" j) Json.get_string
                |> Option.value ~default:""
              in
              Ok (Measure { path; source; input; machine }))
        | "lint" ->
          source_req (fun path source ->
              let* level = level_of_json j in
              let* machine = machine_of_json j in
              Ok (Lint { path; source; level; machine }))
        | "explain" ->
          source_req (fun path source ->
              let* level = level_of_json j in
              let* machine = machine_of_json j in
              Ok (Explain { path; source; level; machine }))
        | "fuzz" ->
          let* seeds = int_field ~default:10 j "seeds" in
          let* start = int_field ~default:0 j "start" in
          let* max_steps = int_field ~default:3_000_000 j "max_steps" in
          if seeds < 1 || seeds > 1000 then Error "\"seeds\" must be in 1..1000"
          else Ok (Fuzz { seeds; start; max_steps })
        | "status" -> Ok Status
        | "ping" -> Ok Ping
        | "drain" -> Ok Drain
        | k -> Error (Printf.sprintf "unknown request kind %S" k)
      in
      Ok { id; qos; req }
  | _ -> Error "request is not a JSON object"

let parse_envelope payload =
  match Json.parse payload with
  | Error e -> Error e
  | Ok j -> envelope_of_json j

(* --- responses --- *)

type error_code =
  | Overloaded  (** admission queue full; retry later *)
  | Draining  (** server is shutting down; no new work *)
  | Bad_request  (** unparseable or invalid request *)
  | Crashed  (** every attempt of the request crashed *)
  | Deadline  (** every attempt hit the request deadline *)
  | Runtime_error  (** the simulated program faulted *)
  | Internal  (** unexpected server-side failure *)

let error_code_name = function
  | Overloaded -> "overloaded"
  | Draining -> "draining"
  | Bad_request -> "bad-request"
  | Crashed -> "crashed"
  | Deadline -> "deadline"
  | Runtime_error -> "runtime-error"
  | Internal -> "internal"

let error_code_of_name = function
  | "overloaded" -> Some Overloaded
  | "draining" -> Some Draining
  | "bad-request" -> Some Bad_request
  | "crashed" -> Some Crashed
  | "deadline" -> Some Deadline
  | "runtime-error" -> Some Runtime_error
  | "internal" -> Some Internal
  | _ -> None

(* A result's [payload] is the *rendered* JSON document, carried as a
   string: the client prints it verbatim, so the bytes a daemon round
   trip produces are exactly the one-shot CLI's stdout — re-parsing and
   re-rendering would perturb float formatting. *)
type response =
  | Telemetry of { id : int; line : string }
  | Result of { id : int; payload : string; elapsed_ms : float }
  | Error_resp of { id : int; code : error_code; message : string }

let response_to_json = function
  | Telemetry { id; line } ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("type", Json.Str "telemetry");
        ("line", Json.Str line);
      ]
  | Result { id; payload; elapsed_ms } ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("type", Json.Str "result");
        ("elapsed_ms", Json.Float elapsed_ms);
        ("payload", Json.Str payload);
      ]
  | Error_resp { id; code; message } ->
    Json.Obj
      [
        ("id", Json.Int id);
        ("type", Json.Str "error");
        ("code", Json.Str (error_code_name code));
        ("message", Json.Str message);
      ]

let response_of_json j =
  let* id = int_field j "id" in
  let* ty = str_field j "type" in
  match ty with
  | "telemetry" ->
    let* line = str_field j "line" in
    Ok (Telemetry { id; line })
  | "result" ->
    let* payload = str_field j "payload" in
    let elapsed_ms =
      Option.bind (Json.member "elapsed_ms" j) Json.get_float
      |> Option.value ~default:0.
    in
    Ok (Result { id; payload; elapsed_ms })
  | "error" ->
    let* code_s = str_field j "code" in
    let* message = str_field j "message" in
    (match error_code_of_name code_s with
    | Some code -> Ok (Error_resp { id; code; message })
    | None -> Error (Printf.sprintf "unknown error code %S" code_s))
  | t -> Error (Printf.sprintf "unknown response type %S" t)

let parse_response payload =
  match Json.parse payload with
  | Error e -> Error e
  | Ok j -> response_of_json j

(* --- connection-level chaos (client-side fault injection) --- *)

type conn_chaos = {
  disconnect : float;  (** close mid-frame after sending half a request *)
  slowloris : float;  (** dribble the request one byte at a time *)
  garbage : float;  (** corrupt the payload so it cannot parse *)
  conn_seed : int;
}

(* Same splitmix-flavored 30-bit scramble as [Harness.Pool]'s worker
   chaos, so wire faults are equally a pure function of (seed, request
   index) and campaigns reproduce exactly. *)
let conn_mix seed req =
  let mask = (1 lsl 30) - 1 in
  let golden = 0x9E3779B1 in
  let scramble h =
    let h = (h lxor (h lsr 15)) * 0x85EBCA6B land mask in
    let h = (h lxor (h lsr 13)) * 0xC2B2AE35 land mask in
    h lxor (h lsr 16)
  in
  let h = scramble ((seed land mask) + golden) in
  scramble (h lxor ((req + 1) * golden land mask))

let conn_fault c ~req =
  let u = float_of_int (conn_mix c.conn_seed req land 0xFFFFFF) /. 16777216. in
  if u < c.disconnect then Some `Disconnect
  else if u < c.disconnect +. c.slowloris then Some `Slowloris
  else if u < c.disconnect +. c.slowloris +. c.garbage then Some `Garbage
  else None

let conn_chaos_of_string s =
  let parts =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  let rate kind v =
    match float_of_string_opt v with
    | Some r when r >= 0. && r <= 1. -> Ok r
    | Some _ | None ->
      Error
        (Printf.sprintf "bad %s rate %S (want a probability in 0..1)" kind v)
  in
  let rec go c = function
    | [] ->
      if c.disconnect +. c.slowloris +. c.garbage > 0. then Ok c
      else Error "connection chaos spec enables no fault kind"
    | p :: rest -> (
      let kind, value =
        match String.index_opt p ':' with
        | None -> (p, None)
        | Some i ->
          ( String.sub p 0 i,
            Some (String.sub p (i + 1) (String.length p - i - 1)) )
      in
      let with_rate set = function
        | None -> go (set 0.1) rest
        | Some v -> (
          match rate kind v with Ok r -> go (set r) rest | Error e -> Error e)
      in
      match kind with
      | "disconnect" -> with_rate (fun r -> { c with disconnect = r }) value
      | "slowloris" -> with_rate (fun r -> { c with slowloris = r }) value
      | "garbage" -> with_rate (fun r -> { c with garbage = r }) value
      | "seed" -> (
        match Option.bind value int_of_string_opt with
        | Some n -> go { c with conn_seed = n } rest
        | None -> Error (Printf.sprintf "bad chaos seed in %S (want seed:N)" p))
      | _ ->
        Error
          (Printf.sprintf
             "unknown connection chaos component %S (want \
              disconnect|slowloris|garbage[:RATE] or seed:N)"
             p))
  in
  go { disconnect = 0.; slowloris = 0.; garbage = 0.; conn_seed = 1 } parts
