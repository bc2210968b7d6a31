module Json = Telemetry.Json
module Diag = Telemetry.Diag

type t = {
  dir : string;
  mu : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable corrupt : int;
  mutable commits : int;
  mutable evicted : int;
}

type lookup = Hit of Json.t | Miss | Corrupt of Diag.t

let default_dir = "_campaign"
let magic = "jumprep-store 1"

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let objects_dir t = Filename.concat t.dir "objects"
let tmp_dir t = Filename.concat t.dir "tmp"
let journal_path t = Filename.concat t.dir "journal"

(* Only hex keys reach us, but refuse anything path-unsafe outright. *)
let check_key key =
  if
    String.length key < 2
    || String.exists (fun c -> not ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) key
  then invalid_arg (Printf.sprintf "Store: malformed key %S" key)

let entry_path t key =
  check_key key;
  Filename.concat
    (Filename.concat (objects_dir t) (String.sub key 0 2))
    (key ^ ".json")

let open_ ?(create = true) dir =
  let t =
    { dir; mu = Mutex.create (); hits = 0; misses = 0; corrupt = 0; commits = 0; evicted = 0 }
  in
  if create then begin
    mkdir_p (objects_dir t);
    mkdir_p (tmp_dir t)
  end;
  t


let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* "jumprep-store 1 LEN MD5HEX\nPAYLOAD" *)
let encode payload =
  Printf.sprintf "%s %d %s\n%s" magic (String.length payload)
    (Digest.to_hex (Digest.string payload))
    payload

let decode raw =
  match String.index_opt raw '\n' with
  | None -> Error "no header line"
  | Some nl -> (
    let header = String.sub raw 0 nl in
    match String.split_on_char ' ' header with
    | [ "jumprep-store"; "1"; len; md5 ] -> (
      match int_of_string_opt len with
      | None -> Error "malformed length"
      | Some len ->
        let have = String.length raw - nl - 1 in
        if have <> len then
          Error (Printf.sprintf "payload truncated (%d of %d bytes)" have len)
        else
          let payload = String.sub raw (nl + 1) len in
          if Digest.to_hex (Digest.string payload) <> md5 then
            Error "payload digest mismatch (bit flip?)"
          else
            Result.map_error
              (fun e -> "unparsable payload: " ^ e)
              (Json.parse payload))
    | _ -> Error "bad magic")

let short key = if String.length key > 12 then String.sub key 0 12 else key

let corrupt_diag key msg =
  Diag.make ~severity:Diag.Warn Diag.Store_corrupt ~func:"" ~pass:"store"
    (Printf.sprintf "entry %s: %s; recomputing" (short key) msg)

let find t key =
  let path = entry_path t key in
  if not (Sys.file_exists path) then begin
    locked t (fun () -> t.misses <- t.misses + 1);
    Miss
  end
  else
    match read_file path with
    | exception _ ->
      locked t (fun () -> t.corrupt <- t.corrupt + 1);
      Corrupt (corrupt_diag key "unreadable")
    | raw -> (
      match decode raw with
      | Ok json ->
        locked t (fun () -> t.hits <- t.hits + 1);
        Hit json
      | Error msg ->
        locked t (fun () -> t.corrupt <- t.corrupt + 1);
        Corrupt (corrupt_diag key msg))

let note_corrupt t key msg =
  locked t (fun () ->
      t.hits <- t.hits - 1;
      t.corrupt <- t.corrupt + 1);
  corrupt_diag key msg

(* One O_APPEND write per line: atomic enough for concurrent workers
   appending to the same journal. *)
let journal_append t line =
  let fd =
    Unix.openfile (journal_path t) [ O_WRONLY; O_CREAT; O_APPEND ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let b = Bytes.of_string (line ^ "\n") in
      ignore (Unix.write fd b 0 (Bytes.length b)))

let lease t key =
  check_key key;
  journal_append t ("start " ^ key)

let commit t ~key json =
  let path = entry_path t key in
  mkdir_p (Filename.dirname path);
  let staged =
    Filename.concat (tmp_dir t)
      (Printf.sprintf "%s.%d.tmp" key (Unix.getpid ()))
  in
  let oc = open_out_bin staged in
  (try output_string oc (encode (Json.to_string json))
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Unix.rename staged path;
  journal_append t ("done " ^ key);
  locked t (fun () -> t.commits <- t.commits + 1)

let pending t =
  match read_file (journal_path t) with
  | exception _ -> []
  | raw ->
    let started = Hashtbl.create 64 in
    let order = ref [] in
    String.split_on_char '\n' raw
    |> List.iter (fun line ->
           match String.index_opt line ' ' with
           | None -> ()
           | Some sp -> (
             let verb = String.sub line 0 sp in
             let key = String.sub line (sp + 1) (String.length line - sp - 1) in
             match verb with
             | "start" ->
               if not (Hashtbl.mem started key) then begin
                 Hashtbl.replace started key true;
                 order := key :: !order
               end
             | "done" -> Hashtbl.replace started key false
             | _ -> ()));
    List.rev !order
    |> List.filter (fun k -> try Hashtbl.find started k with Not_found -> false)

let iter_entries t f =
  let odir = objects_dir t in
  if Sys.file_exists odir then
    Array.iter
      (fun shard ->
        let sdir = Filename.concat odir shard in
        if Sys.is_directory sdir then
          Array.iter
            (fun name ->
              if Filename.check_suffix name ".json" then
                f (Filename.concat sdir name))
            (Sys.readdir sdir))
      (Sys.readdir odir)

let disk_usage t =
  let n = ref 0 and bytes = ref 0 in
  iter_entries t (fun path ->
      incr n;
      bytes := !bytes + (try (Unix.stat path).st_size with _ -> 0));
  (!n, !bytes)

let stats t =
  locked t (fun () ->
      [
        ("store.hits", t.hits);
        ("store.misses", t.misses);
        ("store.corrupt", t.corrupt);
        ("store.commits", t.commits);
        ("store.evicted", t.evicted);
      ])

let gc ?max_entries t =
  (* Staged strays: anything in tmp/ is a write that never committed. *)
  let tmp_removed = ref 0 in
  let tdir = tmp_dir t in
  if Sys.file_exists tdir then
    Array.iter
      (fun name ->
        (try Sys.remove (Filename.concat tdir name) with _ -> ());
        incr tmp_removed)
      (Sys.readdir tdir);
  (* Journal compaction: keep only the still-pending leases. *)
  let still = pending t in
  let jp = journal_path t in
  if Sys.file_exists jp then begin
    let oc = open_out_bin (jp ^ ".gc") in
    List.iter (fun k -> output_string oc ("start " ^ k ^ "\n")) still;
    close_out oc;
    Unix.rename (jp ^ ".gc") jp
  end;
  (* Eviction: oldest mtime first, down to [max_entries]. *)
  let evicted = ref 0 in
  (match max_entries with
  | None -> ()
  | Some keep ->
    let entries = ref [] in
    iter_entries t (fun path ->
        let mtime = try (Unix.stat path).st_mtime with _ -> 0.0 in
        entries := (mtime, path) :: !entries);
    let sorted = List.sort compare !entries in
    let excess = List.length sorted - max 0 keep in
    List.iteri
      (fun i (_, path) ->
        if i < excess then begin
          (try Sys.remove path with _ -> ());
          incr evicted
        end)
      sorted);
  locked t (fun () -> t.evicted <- t.evicted + !evicted);
  (!evicted, !tmp_removed)
