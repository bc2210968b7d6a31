let hex ~kind components =
  let b = Buffer.create 512 in
  Buffer.add_string b kind;
  Buffer.add_char b '\n';
  List.iter
    (fun (name, v) ->
      (* Length-prefixing both halves makes the encoding injective:
         no choice of names/values can collide with a different list. *)
      Buffer.add_string b (string_of_int (String.length name));
      Buffer.add_char b ':';
      Buffer.add_string b name;
      Buffer.add_string b (string_of_int (String.length v));
      Buffer.add_char b ':';
      Buffer.add_string b v)
    components;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [git describe] is per-process-invariant; memoize the subprocess. *)
let described = ref None

let git_describe () =
  match !described with
  | Some d -> d
  | None ->
    let d =
      match
        Unix.open_process_in "git describe --always --dirty 2>/dev/null"
      with
      | exception _ -> "no-git"
      | ic -> (
        let line = try String.trim (input_line ic) with End_of_file -> "" in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, l when l <> "" -> l
        | _ -> "no-git"
        | exception _ -> "no-git")
    in
    described := Some d;
    d

let fingerprint () = Opt.Driver.pipeline_signature ^ "+" ^ git_describe ()

let cache_signature =
  lazy (String.concat ";" (List.map Icache.config_name Icache.paper_configs))

let measure ~engine (b : Programs.Suite.benchmark) level
    (machine : Ir.Machine.t) =
  hex ~kind:"measure/1"
    [
      ("program", b.name);
      ("source", b.source);
      ("input", b.input);
      ("expected", b.expected_output);
      ("level", Opt.Driver.level_name level);
      ("machine", machine.Ir.Machine.short);
      ("caches", Lazy.force cache_signature);
      ("engine", Sim.Engine.kind_name engine);
      ("compiler", fingerprint ());
    ]

let fuzz ~max_steps ~verify ~inject_fault seed =
  hex ~kind:"fuzz/2"
    [
      ("seed", string_of_int seed);
      ("max_steps", string_of_int max_steps);
      ("verify", string_of_bool verify);
      ("inject_fault", Option.value ~default:"" inject_fault);
      ("compiler", fingerprint ());
    ]

let certify ~level ~(machine : Ir.Machine.t) ~inject_fault
    (b : Programs.Suite.benchmark) =
  hex ~kind:"certify/1"
    [
      ("program", b.name);
      ("source", b.source);
      ("level", Opt.Driver.level_name level);
      ("machine", machine.Ir.Machine.short);
      ("inject_fault", Option.value ~default:"" inject_fault);
      ("compiler", fingerprint ());
    ]
