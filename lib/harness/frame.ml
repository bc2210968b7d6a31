(* Length-prefixed frames (see frame.mli).  The decoder never raises on
   wire input, which makes the codec directly fuzzable — see
   test_harness's decoder fuzz. *)

let max_frame = 16 * 1024 * 1024
let header_len = 4

let encode payload =
  let n = String.length payload in
  if n > max_frame then
    invalid_arg (Printf.sprintf "Frame.encode: %d bytes > max" n);
  let b = Bytes.create (header_len + n) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (n land 0xFF));
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* --- incremental decoder --- *)

(* Arriving bytes accumulate in a [Buffer]; consumption advances an
   offset instead of rebuilding an immutable string per read, so feeding
   a near-max frame in 64KB reads costs O(frame) total, not O(frame^2)
   on the single-threaded event loop.  The consumed prefix is dropped
   once it outweighs the remainder, which keeps both memory and
   compaction copying proportional to the unconsumed bytes. *)
type decoder = {
  buf : Buffer.t;  (* everything fed, minus compactions *)
  mutable off : int;  (* consumed prefix of [buf] *)
  mutable dead : string option;  (* first protocol error, if any *)
}

let decoder () = { buf = Buffer.create 1024; off = 0; dead = None }

let feed d s =
  if d.dead = None && s <> "" then Buffer.add_string d.buf s

(* Bytes buffered but not yet returned as a frame. *)
let pending d = Buffer.length d.buf - d.off

let compact d =
  let len = Buffer.length d.buf in
  if d.off = len then begin
    Buffer.clear d.buf;
    d.off <- 0
  end
  else if d.off >= len - d.off then begin
    let rest = Buffer.sub d.buf d.off (len - d.off) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.off <- 0
  end

let next d =
  match d.dead with
  | Some e -> Error e
  | None ->
    let avail = pending d in
    if avail < header_len then Ok None
    else begin
      let byte i = Char.code (Buffer.nth d.buf (d.off + i)) in
      let n = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
      if n > max_frame then begin
        let e = Printf.sprintf "frame length %d exceeds %d-byte cap" n max_frame in
        d.dead <- Some e;
        Error e
      end
      else if avail < header_len + n then Ok None
      else begin
        let payload = Buffer.sub d.buf (d.off + header_len) n in
        d.off <- d.off + header_len + n;
        compact d;
        Ok (Some payload)
      end
    end

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done
