(* Client side of the jumprepd protocol: one blocking connection, plus
   the connection-level chaos injector the CI campaign drives.

   Chaos faults are staged on *throwaway* connections: a disconnect
   sends half a frame and hangs up, a slowloris dribbles a valid request
   one byte at a time and hangs up without reading, garbage corrupts the
   payload so it cannot parse.  The real request then runs undisturbed
   on the main connection — so a chaos campaign exercises the server's
   half-frame, slow-peer and garbage handling while the results stay
   byte-identical to a quiet run (the equivalence CI asserts). *)

module Json = Telemetry.Json

type t = {
  fd : Unix.file_descr;
  dec : Harness.Frame.decoder;
  socket_path : string;
  chaos : Protocol.conn_chaos option;
  mutable next_id : int;
  mutable req_count : int;  (* chaos draw index, counts every request *)
}

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let connect_fd socket_path =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  match Unix.connect fd (ADDR_UNIX socket_path) with
  | () -> Ok fd
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Error
      (Printf.sprintf "cannot connect to %s: %s" socket_path
         (Unix.error_message e))

let connect ?chaos socket_path =
  match connect_fd socket_path with
  | Error _ as e -> e
  | Ok fd ->
    Ok
      {
        fd;
        dec = Harness.Frame.decoder ();
        socket_path;
        chaos;
        next_id = 1;
        req_count = 0;
      }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* One staged wire fault against a throwaway connection.  Best-effort:
   if the server refuses the connection (it may be draining), the fault
   simply does not fire. *)
let inject_fault t fault frame =
  match connect_fd t.socket_path with
  | Error _ -> ()
  | Ok fd ->
    (try
       (match fault with
       | `Disconnect ->
         (* Half a frame, then a hard close: the decoder on the other
            side must hold the partial frame until the half-open timeout
            reaps it. *)
         write_all fd frame 0 (max 1 (String.length frame / 2))
       | `Slowloris ->
         (* A valid request, one byte at a time.  Bounded: dribble the
            header and the first payload bytes, then finish in one burst
            and hang up without reading the response. *)
         let dribble = min 32 (String.length frame) in
         for i = 0 to dribble - 1 do
           write_all fd frame i 1;
           Unix.sleepf 0.002
         done;
         write_all fd frame dribble (String.length frame - dribble)
       | `Garbage ->
         (* Correct framing, garbage payload: the first byte of a valid
            envelope is always '{', so 0xFF can never parse.  The server
            answers bad-request and keeps its connection in sync. *)
         let b = Bytes.of_string frame in
         Bytes.set b 4 '\xFF';
         write_all fd (Bytes.to_string b) 0 (Bytes.length b))
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

exception Protocol_error of string

(* Read until the frame for [id] arrives.  Telemetry frames stream to
   [on_telemetry]; frames for other ids (there are none today — requests
   on one connection are answered in order) are skipped. *)
let read_response t ~id ~on_telemetry =
  let buf = Bytes.create 65536 in
  let rec next () =
    match Harness.Frame.next t.dec with
    | Error e -> raise (Protocol_error e)
    | Ok (Some payload) -> (
      match Protocol.parse_response payload with
      | Error e -> raise (Protocol_error ("bad response frame: " ^ e))
      | Ok (Protocol.Telemetry { id = tid; line }) ->
        if tid = id then on_telemetry line;
        next ()
      | Ok (Protocol.Result { id = rid; payload; elapsed_ms }) ->
        if rid = id then Ok (payload, elapsed_ms) else next ()
      | Ok (Protocol.Error_resp { id = rid; code; message }) ->
        if rid = id || rid = 0 then Error (code, message) else next ())
    | Ok None -> (
      match Unix.read t.fd buf 0 (Bytes.length buf) with
      | 0 -> raise (Protocol_error "server closed the connection")
      | n ->
        Harness.Frame.feed t.dec (Bytes.sub_string buf 0 n);
        next ()
      | exception Unix.Unix_error (EINTR, _, _) -> next ()
      | exception Unix.Unix_error (e, _, _) ->
        raise (Protocol_error (Unix.error_message e)))
  in
  next ()

let request t ?(qos = Protocol.default_qos) ?(on_telemetry = fun _ -> ()) req =
  let id = t.next_id in
  t.next_id <- id + 1;
  let env = { Protocol.id; qos; req } in
  let frame =
    Harness.Frame.encode (Json.to_string (Protocol.envelope_to_json env))
  in
  (* Draw the wire fault for this request index, stage it on a throwaway
     connection, then run the real request undisturbed. *)
  (match t.chaos with
  | None -> ()
  | Some c ->
    let r = t.req_count in
    t.req_count <- r + 1;
    match Protocol.conn_fault c ~req:r with
    | None -> ()
    | Some fault -> inject_fault t fault frame);
  match
    write_all t.fd frame 0 (String.length frame);
    read_response t ~id ~on_telemetry
  with
  | result -> result
  | exception Protocol_error e -> Error (Protocol.Internal, e)
  | exception Unix.Unix_error (e, _, _) ->
    Error (Protocol.Internal, Unix.error_message e)

(* The exit code the one-shot CLI would have produced for this failure —
   what makes `jumprepc client` usable as a drop-in in scripts. *)
let exit_of_code = function
  | Protocol.Bad_request -> 1
  | Protocol.Runtime_error -> 2
  | Protocol.Deadline -> 124
  | Protocol.Crashed | Protocol.Internal -> 125
  | Protocol.Overloaded | Protocol.Draining -> 75 (* EX_TEMPFAIL *)
