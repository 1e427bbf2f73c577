(* The write-ahead-provenance (WAP) log format (paper §5.6).

   Lasagna writes all provenance to a log; a user-level daemon (Waldo)
   later moves it into a database.  WAP is analogous to database
   write-ahead logging: all provenance records reach the disk before the
   data they describe, so unprovenanced data can never exist on disk.
   Each data-carrying frame embeds an MD5 of the data, letting recovery
   identify precisely the data that was in flight at the time of a crash.

   Frame = magic, payload length, checksum, payload.  Payload kinds:
   - Map: binds a file pnode to its inode in the lower file system
   - Mkobj: announces a virtual (non-file) object on this volume
   - Bundle: a DPAPI bundle, optionally with data identity (pnode, off,
     len, md5) when the pass_write carried data, and optionally a
     transaction id when it came in via PA-NFS transactions. *)

type data_id = { d_pnode : Pass_core.Pnode.t; d_off : int; d_len : int; d_md5 : string }

type frame =
  | Map of { pnode : Pass_core.Pnode.t; ino : Vfs.ino; name : string }
  | Mkobj of { pnode : Pass_core.Pnode.t }
  | Bundle of { txn : int option; bundle : Pass_core.Dpapi.bundle; data : data_id option }

let magic = 0x57415001 (* "WAP." *)

let header_len = 12 (* magic, payload length, checksum *)

(* The checksum of [len] payload bytes at [off] in [s], read in place. *)
let checksum s ~off ~len =
  let h = ref 5381 in
  for i = off to off + len - 1 do
    h := ((!h * 33) + Char.code s.[i]) land 0x3fffffff
  done;
  !h

let put_pnode buf p = Wire.put_i64 buf (Pass_core.Pnode.to_int p)
let get_pnode s pos = Pass_core.Pnode.of_int (Wire.get_i64 s pos)

(* Payload scratch shared by every encode: the encoders below never call
   back into [encode_frame_into], so one module-level buffer is safe. *)
let payload_scratch = Buffer.create 256

let encode_frame_into out fr =
  let buf = payload_scratch in
  Buffer.clear buf;
  (match fr with
  | Map { pnode; ino; name } ->
      Wire.put_u8 buf 1;
      put_pnode buf pnode;
      Wire.put_i64 buf ino;
      Wire.put_string buf name
  | Mkobj { pnode } ->
      Wire.put_u8 buf 2;
      put_pnode buf pnode
  | Bundle { txn; bundle; data } ->
      Wire.put_u8 buf 3;
      (match txn with
      | None -> Wire.put_u8 buf 0
      | Some id ->
          Wire.put_u8 buf 1;
          Wire.put_i64 buf id);
      Pass_core.Dpapi.encode_bundle buf bundle;
      (match data with
      | None -> Wire.put_u8 buf 0
      | Some { d_pnode; d_off; d_len; d_md5 } ->
          Wire.put_u8 buf 1;
          put_pnode buf d_pnode;
          Wire.put_i64 buf d_off;
          Wire.put_i64 buf d_len;
          Wire.put_string buf d_md5));
  let payload = Buffer.contents buf in
  let len = String.length payload in
  Wire.put_u32 out magic;
  Wire.put_u32 out len;
  Wire.put_u32 out (checksum payload ~off:0 ~len);
  Buffer.add_string out payload

(* Decode one payload starting at [!pos] in [s], advancing [pos]. *)
let decode_payload s pos =
  match Wire.get_u8 s pos with
  | 1 ->
      let pnode = get_pnode s pos in
      let ino = Wire.get_i64 s pos in
      let name = Wire.get_string s pos in
      Map { pnode; ino; name }
  | 2 -> Mkobj { pnode = get_pnode s pos }
  | 3 ->
      let txn = if Wire.get_u8 s pos = 1 then Some (Wire.get_i64 s pos) else None in
      let bundle = Pass_core.Dpapi.decode_bundle s pos in
      let data =
        if Wire.get_u8 s pos = 1 then begin
          let d_pnode = get_pnode s pos in
          let d_off = Wire.get_i64 s pos in
          let d_len = Wire.get_i64 s pos in
          let d_md5 = Wire.get_string s pos in
          Some { d_pnode; d_off; d_len; d_md5 }
        end
        else None
      in
      Bundle { txn; bundle; data }
  | n -> Wire.corrupt "WAP log: bad frame tag %d" n

(* Fold over a whole log image, stopping cleanly at the first torn or
   unwritten frame (which is what a crash leaves behind).  Payloads are
   checksummed and decoded where they lie in [image]; the bounds checks
   of [Wire] see the whole image, so a decode that ends past its frame's
   length is caught after the fact and ends the prefix like a decode
   error.  Returns the result and the number of bytes consumed. *)
let fold image ~init f =
  let len = String.length image in
  let pos = ref 0 in
  let rec go acc start =
    if start + header_len > len then (acc, start)
    else begin
      pos := start;
      if Wire.get_u32 image pos <> magic then (acc, start)
      else begin
        let plen = Wire.get_u32 image pos in
        let sum = Wire.get_u32 image pos in
        let stop = start + header_len + plen in
        if stop > len || checksum image ~off:(start + header_len) ~len:plen <> sum then
          (acc, start)
        else
          match decode_payload image pos with
          | frame when !pos <= stop -> go (f acc frame) stop
          | _ | (exception Wire.Corrupt _) -> (acc, start)
      end
    end
  in
  go init 0

let ends_txn bundle =
  List.exists
    (fun (e : Pass_core.Dpapi.bundle_entry) ->
      List.exists
        (fun (r : Pass_core.Record.t) -> String.equal r.attr Pass_core.Record.Attr.endtxn)
        e.records)
    bundle

let md5 data = Digest.string data
