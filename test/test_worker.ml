(* The handler behind the tests' pool worker ([worker.exe], built next
   to the test binary).  It serves the real JSON ops — [measure] and
   [fuzz] through [Campaign.Runner.handle] — plus a few test-only ops
   written as "OP ARG" strings:
   - [sq N] replies N*N;
   - [boom] raises;
   - [flaky N] raises the first time this process sees N (workers share
     no memory, so the state is per process);
   - [spin] loops forever, ignoring any budget;
   - [big N] replies N bytes;
   - [pidfile PATH N] writes the worker's pid to PATH, sleeps 0.3s and
     replies N. *)

let argv =
  [| Filename.concat (Filename.dirname Sys.executable_name) "worker.exe" |]

let seen : (string, unit) Hashtbl.t = Hashtbl.create 8

let handler req =
  match String.split_on_char ' ' req with
  | [ "sq"; n ] -> Some (string_of_int (int_of_string n * int_of_string n))
  | [ "boom" ] -> failwith "boom"
  | [ "flaky"; n ] ->
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      failwith "transient"
    end;
    Some (string_of_int (int_of_string n + 100))
  | [ "big"; n ] -> Some (String.make (int_of_string n) 'x')
  | [ "spin" ] ->
    while true do
      ignore (Sys.opaque_identity (ref 0))
    done;
    None
  | [ "pidfile"; path; n ] ->
    let oc = open_out path in
    output_string oc (string_of_int (Unix.getpid ()));
    close_out oc;
    Unix.sleepf 0.3;
    Some n
  | _ -> Some (Campaign.Runner.handle req)

(* The same handler in-process, for {!Harness.Pool.run}'s [workers = 0]
   path. *)
let inline _budget req =
  match handler req with Some r -> r | None -> failwith "quit"
