(* ext3sim: a journaling file system over Simdisk, standing in for the
   paper's ext3-in-ordered-mode baseline.

   Layout: block 0 is the superblock, blocks [jstart, jstart+jblocks) hold
   the journal, and the data region follows.  Metadata lives in the journal
   in log-structured form: every namespace or mapping change appends a
   frame; mounting replays the journal to rebuild the in-memory tables.
   Ordered mode is honoured the way ext3 does it: file data is written to
   its home location *before* the metadata frame that makes it reachable,
   so replay never exposes metadata whose data is missing.

   The journal compacts into a snapshot frame when it nears the region
   end.  Seek traffic between the data region and the journal region is
   charged by the disk model — this is the baseline's own version of the
   interference that the Lasagna provenance log adds on top. *)

type inode = {
  ino : Vfs.ino;
  kind : Vfs.kind;
  mutable size : int;
  mutable blocks : (int, int) Hashtbl.t; (* logical block -> physical block *)
  mutable dirents : (string, Vfs.ino) Hashtbl.t; (* directories only *)
  mutable reservation : (int * int) option; (* next free, limit: per-file
     block reservation so each file's extents stay contiguous, like the
     ext3 reservation-window allocator *)
}

type t = {
  disk : Simdisk.Disk.t;
  jstart : int; (* first journal block *)
  jblocks : int;
  dstart : int; (* first data block *)
  inodes : (Vfs.ino, inode) Hashtbl.t;
  mutable next_ino : Vfs.ino;
  mutable next_free_block : int;
  mutable journal_tail : int; (* byte offset within the journal region *)
  mutable journal_bytes_written : int;
  (* The page cache: file blocks kept in memory, FIFO-evicted.  A
     stackable layer (Lasagna) halves the capacity — both its pages and
     the lower file system's pages compete for memory, which the paper
     identifies as the dominant Postmark cost. *)
  page_cache : (Vfs.ino * int, string) Hashtbl.t;
  cache_fifo : (Vfs.ino * int) Queue.t; (* insertion order for FIFO eviction *)
  mutable cache_capacity : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let root_ino = 1
let frame_magic = 0x4A453301 (* "JE3." *)

(* --- journal frames ------------------------------------------------------ *)

type jrec =
  | J_create of { dir : Vfs.ino; name : string; ino : Vfs.ino; kind : Vfs.kind }
  | J_unlink of { dir : Vfs.ino; name : string }
  | J_rename of { src_dir : Vfs.ino; src_name : string; dst_dir : Vfs.ino; dst_name : string }
  | J_extent of { ino : Vfs.ino; logical : int; physical : int; count : int }
  | J_size of { ino : Vfs.ino; size : int }
  | J_snapshot of string (* serialized full state *)

let put_kind buf = function Vfs.Regular -> Wire.put_u8 buf 0 | Vfs.Directory -> Wire.put_u8 buf 1
let get_kind s pos = if Wire.get_u8 s pos = 0 then Vfs.Regular else Vfs.Directory

let encode_jrec buf = function
  | J_create { dir; name; ino; kind } ->
      Wire.put_u8 buf 1; Wire.put_i64 buf dir; Wire.put_string buf name;
      Wire.put_i64 buf ino; put_kind buf kind
  | J_unlink { dir; name } ->
      Wire.put_u8 buf 2; Wire.put_i64 buf dir; Wire.put_string buf name
  | J_rename { src_dir; src_name; dst_dir; dst_name } ->
      Wire.put_u8 buf 3; Wire.put_i64 buf src_dir; Wire.put_string buf src_name;
      Wire.put_i64 buf dst_dir; Wire.put_string buf dst_name
  | J_extent { ino; logical; physical; count } ->
      Wire.put_u8 buf 4; Wire.put_i64 buf ino; Wire.put_i64 buf logical;
      Wire.put_i64 buf physical; Wire.put_i64 buf count
  | J_size { ino; size } ->
      Wire.put_u8 buf 5; Wire.put_i64 buf ino; Wire.put_i64 buf size
  | J_snapshot payload ->
      Wire.put_u8 buf 7; Wire.put_string buf payload

let decode_jrec s pos =
  match Wire.get_u8 s pos with
  | 1 ->
      let dir = Wire.get_i64 s pos in
      let name = Wire.get_string s pos in
      let ino = Wire.get_i64 s pos in
      let kind = get_kind s pos in
      J_create { dir; name; ino; kind }
  | 2 ->
      let dir = Wire.get_i64 s pos in
      let name = Wire.get_string s pos in
      J_unlink { dir; name }
  | 3 ->
      let src_dir = Wire.get_i64 s pos in
      let src_name = Wire.get_string s pos in
      let dst_dir = Wire.get_i64 s pos in
      let dst_name = Wire.get_string s pos in
      J_rename { src_dir; src_name; dst_dir; dst_name }
  | 4 ->
      let ino = Wire.get_i64 s pos in
      let logical = Wire.get_i64 s pos in
      let physical = Wire.get_i64 s pos in
      let count = Wire.get_i64 s pos in
      J_extent { ino; logical; physical; count }
  | 5 ->
      let ino = Wire.get_i64 s pos in
      let size = Wire.get_i64 s pos in
      J_size { ino; size }
  | 7 -> J_snapshot (Wire.get_string s pos)
  | n -> Wire.corrupt "ext3 journal: bad record tag %d" n

(* A weak but adequate frame checksum: detects torn frames after a crash. *)
let checksum_step h c = ((h * 131) + Char.code c) land 0x3fffffff
let checksum payload = String.fold_left checksum_step 0 payload

(* The same checksum over the first [len] bytes of a buffer. *)
let checksum_prefix b len =
  let h = ref 0 in
  for k = 0 to len - 1 do
    h := checksum_step !h (Bytes.get b k)
  done;
  !h

(* --- in-memory state helpers -------------------------------------------- *)

let new_inode ino kind =
  { ino; kind; size = 0; blocks = Hashtbl.create 8; dirents = Hashtbl.create 8;
    reservation = None }

let apply t = function
  | J_create { dir; name; ino; kind } ->
      Hashtbl.replace t.inodes ino (new_inode ino kind);
      (match Hashtbl.find_opt t.inodes dir with
      | Some d -> Hashtbl.replace d.dirents name ino
      | None -> ());
      if ino >= t.next_ino then t.next_ino <- ino + 1
  | J_unlink { dir; name } -> (
      match Hashtbl.find_opt t.inodes dir with
      | Some d ->
          (match Hashtbl.find_opt d.dirents name with
          | Some ino -> Hashtbl.remove t.inodes ino
          | None -> ());
          Hashtbl.remove d.dirents name
      | None -> ())
  | J_rename { src_dir; src_name; dst_dir; dst_name } -> (
      if src_dir = dst_dir && String.equal src_name dst_name then ()
      else
        match (Hashtbl.find_opt t.inodes src_dir, Hashtbl.find_opt t.inodes dst_dir) with
        | Some sd, Some dd -> (
            match Hashtbl.find_opt sd.dirents src_name with
            | Some ino ->
                (match Hashtbl.find_opt dd.dirents dst_name with
                | Some victim when victim <> ino -> Hashtbl.remove t.inodes victim
                | Some _ | None -> ());
                Hashtbl.remove sd.dirents src_name;
                Hashtbl.replace dd.dirents dst_name ino
            | None -> ())
        | _ -> ())
  | J_extent { ino; logical; physical; count } -> (
      match Hashtbl.find_opt t.inodes ino with
      | Some i ->
          for k = 0 to count - 1 do
            Hashtbl.replace i.blocks (logical + k) (physical + k)
          done;
          if physical + count > t.next_free_block then t.next_free_block <- physical + count
      | None -> ())
  | J_size { ino; size } -> (
      match Hashtbl.find_opt t.inodes ino with
      | Some i -> i.size <- size
      | None -> ())
  | J_snapshot _ -> () (* handled by the replay loop *)

(* --- snapshots ----------------------------------------------------------- *)

let encode_snapshot t =
  let buf = Buffer.create 4096 in
  Wire.put_i64 buf t.next_ino;
  Wire.put_i64 buf t.next_free_block;
  Wire.put_u32 buf (Hashtbl.length t.inodes);
  Hashtbl.iter
    (fun _ (i : inode) ->
      Wire.put_i64 buf i.ino;
      put_kind buf i.kind;
      Wire.put_i64 buf i.size;
      Wire.put_u32 buf (Hashtbl.length i.blocks);
      Hashtbl.iter (fun l p -> Wire.put_i64 buf l; Wire.put_i64 buf p) i.blocks;
      Wire.put_u32 buf (Hashtbl.length i.dirents);
      Hashtbl.iter (fun n ino -> Wire.put_string buf n; Wire.put_i64 buf ino) i.dirents)
    t.inodes;
  Buffer.contents buf

let load_snapshot t payload =
  Hashtbl.reset t.inodes;
  let pos = ref 0 in
  t.next_ino <- Wire.get_i64 payload pos;
  t.next_free_block <- Wire.get_i64 payload pos;
  let n = Wire.get_u32 payload pos in
  for _ = 1 to n do
    let ino = Wire.get_i64 payload pos in
    let kind = get_kind payload pos in
    let size = Wire.get_i64 payload pos in
    let i = new_inode ino kind in
    i.size <- size;
    let nb = Wire.get_u32 payload pos in
    for _ = 1 to nb do
      let l = Wire.get_i64 payload pos in
      let p = Wire.get_i64 payload pos in
      Hashtbl.replace i.blocks l p
    done;
    let nd = Wire.get_u32 payload pos in
    for _ = 1 to nd do
      let nm = Wire.get_string payload pos in
      let child = Wire.get_i64 payload pos in
      Hashtbl.replace i.dirents nm child
    done;
    Hashtbl.replace t.inodes ino i
  done

(* --- journal I/O --------------------------------------------------------- *)

let journal_capacity t = t.jblocks * Simdisk.Disk.block_size

let rec journal_append t rec_ =
  let payload =
    let buf = Buffer.create 64 in
    encode_jrec buf rec_;
    Buffer.contents buf
  in
  let frame =
    let buf = Buffer.create (String.length payload + 12) in
    Wire.put_u32 buf frame_magic;
    Wire.put_u32 buf (String.length payload);
    Wire.put_u32 buf (checksum payload);
    Buffer.add_string buf payload;
    Buffer.contents buf
  in
  if t.journal_tail + String.length frame + 12 > journal_capacity t then begin
    compact_journal t;
    journal_append t rec_
  end
  else begin
    let off = (t.jstart * Simdisk.Disk.block_size) + t.journal_tail in
    Simdisk.Disk.write_bytes t.disk ~off frame;
    t.journal_tail <- t.journal_tail + String.length frame;
    t.journal_bytes_written <- t.journal_bytes_written + String.length frame
  end

and compact_journal t =
  let snap = J_snapshot (encode_snapshot t) in
  t.journal_tail <- 0;
  journal_append t snap

let log_op t rec_ =
  apply t rec_;
  journal_append t rec_

(* --- mount / format ------------------------------------------------------ *)

let default_jblocks = 16384 (* 64 MB journal *)

let make ?(jblocks = default_jblocks) disk =
  {
    disk;
    jstart = 8;
    jblocks;
    dstart = 8 + jblocks;
    inodes = Hashtbl.create 1024;
    next_ino = root_ino + 1;
    next_free_block = 8 + jblocks;
    journal_tail = 0;
    journal_bytes_written = 0;
    page_cache = Hashtbl.create 4096;
    cache_fifo = Queue.create ();
    cache_capacity = 4096; (* 16 MB of 4 KB pages *)
    cache_hits = 0;
    cache_misses = 0;
  }

let set_cache_capacity t blocks =
  t.cache_capacity <- max 0 blocks;
  Hashtbl.reset t.page_cache;
  Queue.clear t.cache_fifo

let cache_stats t = (t.cache_hits, t.cache_misses)

let cache_insert t key data =
  if t.cache_capacity > 0 then begin
    if not (Hashtbl.mem t.page_cache key) then begin
      Queue.push key t.cache_fifo;
      (* FIFO eviction; stale queue entries (already evicted keys) are
         skipped naturally because removal is idempotent *)
      while Hashtbl.length t.page_cache >= t.cache_capacity && not (Queue.is_empty t.cache_fifo) do
        Hashtbl.remove t.page_cache (Queue.pop t.cache_fifo)
      done
    end;
    Hashtbl.replace t.page_cache key data
  end

let format ?jblocks disk =
  let t = make ?jblocks disk in
  Hashtbl.replace t.inodes root_ino (new_inode root_ino Vfs.Directory);
  (* a zeroed journal head marks an empty journal *)
  Simdisk.Disk.write_bytes disk ~off:(t.jstart * Simdisk.Disk.block_size) (String.make 16 '\000');
  t

let mount ?jblocks disk =
  let t = make ?jblocks disk in
  Hashtbl.replace t.inodes root_ino (new_inode root_ino Vfs.Directory);
  (* replay: every header and payload is read into one scratch buffer *)
  let region_off = t.jstart * Simdisk.Disk.block_size in
  let scratch = ref (Bytes.create Simdisk.Disk.block_size) in
  let u32 k = Int32.to_int (Bytes.get_int32_le !scratch k) land 0xffffffff in
  let pos = ref 0 in
  (try
     let continue = ref true in
     while !continue do
       Simdisk.Disk.read_into disk ~off:(region_off + !pos) ~len:12 !scratch;
       if u32 0 <> frame_magic then continue := false
       else begin
         let len = u32 4 and sum = u32 8 in
         if !pos + 12 + len > journal_capacity t then continue := false
         else begin
           if len > Bytes.length !scratch then
             scratch := Bytes.create (max len (2 * Bytes.length !scratch));
           Simdisk.Disk.read_into disk ~off:(region_off + !pos + 12) ~len !scratch;
           if checksum_prefix !scratch len <> sum then continue := false
           else begin
             (match decode_jrec (Bytes.sub_string !scratch 0 len) (ref 0) with
             | J_snapshot s -> load_snapshot t s
             | r -> apply t r);
             pos := !pos + 12 + len
           end
         end
       end
     done
   with Wire.Corrupt _ | Invalid_argument _ -> ());
  t.journal_tail <- !pos;
  t

(* --- VFS operations ------------------------------------------------------ *)

let ( let* ) = Result.bind

let get_inode t ino =
  match Hashtbl.find_opt t.inodes ino with Some i -> Ok i | None -> Error Vfs.ESTALE

let get_dir t ino =
  let* i = get_inode t ino in
  if i.kind <> Vfs.Directory then Error Vfs.ENOTDIR else Ok i

let guard _t f =
  try f () with
  | Simdisk.Disk.Crashed -> Error Vfs.ECRASH
  | Simdisk.Disk.Io_error -> Error Vfs.EIO

let lookup t ~dir name =
  guard t (fun () ->
      let* d = get_dir t dir in
      match Hashtbl.find_opt d.dirents name with
      | Some ino -> Ok ino
      | None -> Error Vfs.ENOENT)

let create t ~dir name kind =
  guard t (fun () ->
      let* d = get_dir t dir in
      if Hashtbl.mem d.dirents name then Error Vfs.EEXIST
      else begin
        let ino = t.next_ino in
        t.next_ino <- ino + 1;
        log_op t (J_create { dir; name; ino; kind });
        Ok ino
      end)

let unlink t ~dir name =
  guard t (fun () ->
      let* d = get_dir t dir in
      match Hashtbl.find_opt d.dirents name with
      | None -> Error Vfs.ENOENT
      | Some ino ->
          let* i = get_inode t ino in
          if i.kind = Vfs.Directory && Hashtbl.length i.dirents > 0 then Error Vfs.ENOTEMPTY
          else begin
            log_op t (J_unlink { dir; name });
            Ok ()
          end)

let rename t ~src_dir ~src_name ~dst_dir ~dst_name =
  guard t (fun () ->
      let* sd = get_dir t src_dir in
      let* _dd = get_dir t dst_dir in
      if not (Hashtbl.mem sd.dirents src_name) then Error Vfs.ENOENT
      else begin
        log_op t (J_rename { src_dir; src_name; dst_dir; dst_name });
        Ok ()
      end)

let reservation_window = 256

(* Allocate physical blocks so that logical blocks [first, last] are all
   mapped, journalling one extent per contiguous run.  Allocation draws
   from the file's reservation window so each file's blocks stay
   contiguous even when several files (or the provenance log) grow in an
   interleaved fashion. *)
let ensure_blocks t (i : inode) ~first ~last =
  let alloc count =
    match i.reservation with
    | Some (next, limit) when next + count <= limit ->
        i.reservation <- Some (next + count, limit);
        next
    | _ ->
        let want = max count reservation_window in
        let start = t.next_free_block in
        t.next_free_block <- start + want;
        i.reservation <- Some (start + count, start + want);
        start
  in
  let run_start = ref None in
  let flush_run upto =
    match !run_start with
    | None -> ()
    | Some s ->
        let count = upto - s + 1 in
        let physical = alloc count in
        log_op t (J_extent { ino = i.ino; logical = s; physical; count });
        run_start := None
  in
  for l = first to last do
    if Hashtbl.mem i.blocks l then flush_run (l - 1)
    else if !run_start = None then run_start := Some l
  done;
  flush_run last

let write t ino ~off data =
  guard t (fun () ->
      let* i = get_inode t ino in
      if i.kind = Vfs.Directory then Error Vfs.EISDIR
      else begin
        let len = String.length data in
        if len > 0 then begin
          let first = off / Simdisk.Disk.block_size and last = (off + len - 1) / Simdisk.Disk.block_size in
          ensure_blocks t i ~first ~last;
          (* ordered mode: write the data to its home before any size frame.
             Each block is built once and the disk and the page cache
             share it. *)
          let bs = Simdisk.Disk.block_size in
          let pos = ref 0 in
          while !pos < len do
            let abs = off + !pos in
            let l = abs / bs and inblk = abs mod bs in
            let n = min (bs - inblk) (len - !pos) in
            let phys = Hashtbl.find i.blocks l in
            let key = (ino, l) in
            if n = bs then begin
              let block = if len = bs then data else String.sub data !pos bs in
              Simdisk.Disk.write_block t.disk phys block;
              cache_insert t key block
            end
            else begin
              match Hashtbl.find_opt t.page_cache key with
              | None ->
                  (* no page to keep coherent: the device merges in place *)
                  Simdisk.Disk.write_partial t.disk phys ~at:inblk data ~pos:!pos ~len:n
              | Some page ->
                  let medium = Simdisk.Disk.stored_block t.disk phys in
                  let block = Simdisk.Disk.patch medium ~at:inblk data ~pos:!pos ~len:n in
                  Simdisk.Disk.write_block t.disk phys block;
                  (* write-through: the page is shared and immutable, so it
                     is replaced.  It differs from the medium only where a
                     fault damaged the medium *)
                  Hashtbl.replace t.page_cache key
                    (if page == medium then block
                     else Simdisk.Disk.patch page ~at:inblk data ~pos:!pos ~len:n)
            end;
            pos := !pos + n
          done
        end;
        if off + len > i.size then log_op t (J_size { ino; size = off + len });
        Ok ()
      end)

(* Logical block [l] of [i] as a shared page: from the cache, or read from
   the disk and cached; [None] for a hole. *)
let page t (i : inode) l =
  match Hashtbl.find_opt i.blocks l with
  | None -> None
  | Some phys -> (
      let key = (i.ino, l) in
      match Hashtbl.find_opt t.page_cache key with
      | Some page ->
          t.cache_hits <- t.cache_hits + 1;
          Some page
      | None ->
          t.cache_misses <- t.cache_misses + 1;
          let page = Simdisk.Disk.read_block t.disk phys in
          cache_insert t key page;
          Some page)

let read t ino ~off ~len =
  guard t (fun () ->
      let* i = get_inode t ino in
      if i.kind = Vfs.Directory then Error Vfs.EISDIR
      else begin
        let bs = Simdisk.Disk.block_size in
        let len = max 0 (min len (i.size - off)) in
        if len = 0 then Ok ""
        else
          match if len = bs && off mod bs = 0 then page t i (off / bs) else None with
          | Some whole -> Ok whole (* an aligned one-block read returns the page *)
          | None ->
              let out = Bytes.create len in
              let pos = ref 0 in
              while !pos < len do
                let abs = off + !pos in
                let l = abs / bs and inblk = abs mod bs in
                let n = min (bs - inblk) (len - !pos) in
                (match page t i l with
                | Some p -> Bytes.blit_string p inblk out !pos n
                | None -> Bytes.fill out !pos n '\000');
                pos := !pos + n
              done;
              Ok (Bytes.unsafe_to_string out)
      end)

let truncate t ino size =
  guard t (fun () ->
      let* i = get_inode t ino in
      if i.kind = Vfs.Directory then Error Vfs.EISDIR
      else begin
        if size <> i.size then log_op t (J_size { ino; size });
        Ok ()
      end)

let getattr t ino =
  guard t (fun () ->
      let* i = get_inode t ino in
      Ok { Vfs.st_ino = ino; st_kind = i.kind; st_size = i.size })

let readdir t ino =
  guard t (fun () ->
      let* d = get_dir t ino in
      Ok (Hashtbl.fold (fun name _ acc -> name :: acc) d.dirents [] |> List.sort String.compare))

let ops t : Vfs.ops =
  {
    root = (fun () -> root_ino);
    lookup = (fun ~dir name -> lookup t ~dir name);
    create = (fun ~dir name kind -> create t ~dir name kind);
    unlink = (fun ~dir name -> unlink t ~dir name);
    rename = (fun ~src_dir ~src_name ~dst_dir ~dst_name ->
        rename t ~src_dir ~src_name ~dst_dir ~dst_name);
    read = (fun ino ~off ~len -> read t ino ~off ~len);
    write = (fun ino ~off data -> write t ino ~off data);
    truncate = (fun ino size -> truncate t ino size);
    getattr = (fun ino -> getattr t ino);
    readdir = (fun ino -> readdir t ino);
    fsync = (fun ino -> guard t (fun () -> Result.map (fun _ -> ()) (get_inode t ino)));
    sync = (fun () -> Ok ());
  }

(* --- accounting for Table 3 --------------------------------------------- *)

let journal_bytes_written t = t.journal_bytes_written

let live_bytes t =
  Hashtbl.fold (fun _ (i : inode) acc -> if i.kind = Vfs.Regular then acc + i.size else acc)
    t.inodes 0
