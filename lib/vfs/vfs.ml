(* The VFS interface of the simulated OS.  File systems — ext3sim, the
   Lasagna stackable layer, and the PA-NFS client — all present this
   record-of-operations, which is what lets Lasagna stack over ext3 locally
   and over the NFS client remotely without either knowing. *)

type errno =
  | ENOENT
  | EEXIST
  | ENOTDIR
  | EISDIR
  | ENOTEMPTY
  | EINVAL
  | EIO
  | ENOSPC
  | EBADF
  | ESTALE
  | ECRASH
  | EAGAIN

let errno_to_string = function
  | ENOENT -> "ENOENT"
  | EEXIST -> "EEXIST"
  | ENOTDIR -> "ENOTDIR"
  | EISDIR -> "EISDIR"
  | ENOTEMPTY -> "ENOTEMPTY"
  | EINVAL -> "EINVAL"
  | EIO -> "EIO"
  | ENOSPC -> "ENOSPC"
  | EBADF -> "EBADF"
  | ESTALE -> "ESTALE"
  | ECRASH -> "ECRASH"
  | EAGAIN -> "EAGAIN"

let errno_of_string = function
  | "ENOENT" -> Some ENOENT
  | "EEXIST" -> Some EEXIST
  | "ENOTDIR" -> Some ENOTDIR
  | "EISDIR" -> Some EISDIR
  | "ENOTEMPTY" -> Some ENOTEMPTY
  | "EINVAL" -> Some EINVAL
  | "EIO" -> Some EIO
  | "ENOSPC" -> Some ENOSPC
  | "EBADF" -> Some EBADF
  | "ESTALE" -> Some ESTALE
  | "ECRASH" -> Some ECRASH
  | "EAGAIN" -> Some EAGAIN
  | _ -> None

(* Volume-fatal conditions hit on paths that cannot return a [result]
   (mounting a layer, allocating a fresh WAP log).  Typed so handlers can
   match on the errno instead of parsing a failwith string. *)
exception Fatal of string * errno

let fatal what e = raise (Fatal (what, e))

type ino = int
type kind = Regular | Directory

type stat = { st_ino : ino; st_kind : kind; st_size : int }

type ops = {
  root : unit -> ino;
  lookup : dir:ino -> string -> (ino, errno) result;
  create : dir:ino -> string -> kind -> (ino, errno) result;
  unlink : dir:ino -> string -> (unit, errno) result;
  rename :
    src_dir:ino -> src_name:string -> dst_dir:ino -> dst_name:string ->
    (unit, errno) result;
  read : ino -> off:int -> len:int -> (string, errno) result;
  write : ino -> off:int -> string -> (unit, errno) result;
  truncate : ino -> int -> (unit, errno) result;
  getattr : ino -> (stat, errno) result;
  readdir : ino -> (string list, errno) result;
  fsync : ino -> (unit, errno) result;
  sync : unit -> (unit, errno) result;
}

let ( let* ) = Result.bind

(* --- path helpers over any [ops] ---------------------------------------- *)

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

let lookup_path fs path =
  let rec walk dir = function
    | [] -> Ok dir
    | seg :: rest ->
        let* next = fs.lookup ~dir seg in
        walk next rest
  in
  walk (fs.root ()) (split_path path)

let parent_and_leaf fs path =
  match List.rev (split_path path) with
  | [] -> Error EINVAL
  | leaf :: rev_dirs ->
      let* dir =
        List.fold_left
          (fun acc seg ->
            let* d = acc in
            fs.lookup ~dir:d seg)
          (Ok (fs.root ()))
          (List.rev rev_dirs)
      in
      Ok (dir, leaf)

let mkdir_p fs path =
  let rec walk dir = function
    | [] -> Ok dir
    | seg :: rest -> (
        match fs.lookup ~dir seg with
        | Ok next -> walk next rest
        | Error ENOENT ->
            let* next = fs.create ~dir seg Directory in
            walk next rest
        | Error _ as e -> e)
  in
  walk (fs.root ()) (split_path path)

let create_path ?(mkparents = false) fs path kind =
  let* dirpath, leaf =
    match List.rev (split_path path) with
    | [] -> Error EINVAL
    | leaf :: rev_dirs -> Ok (List.rev rev_dirs, leaf)
  in
  let* dir =
    if mkparents then mkdir_p fs (String.concat "/" dirpath)
    else lookup_path fs ("/" ^ String.concat "/" dirpath)
  in
  fs.create ~dir leaf kind

let read_file fs path =
  let* ino = lookup_path fs path in
  let* st = fs.getattr ino in
  fs.read ino ~off:0 ~len:st.st_size

let write_file ?(mkparents = false) fs path data =
  let* ino =
    match lookup_path fs path with
    | Ok ino -> Ok ino
    | Error ENOENT -> create_path ~mkparents fs path Regular
    | Error _ as e -> e
  in
  let* () = fs.truncate ino (String.length data) in
  let* () = fs.write ino ~off:0 data in
  Ok ino

let remove_path fs path =
  let* dir, leaf = parent_and_leaf fs path in
  fs.unlink ~dir leaf

let rename_path fs src dst =
  let* src_dir, src_name = parent_and_leaf fs src in
  let* dst_dir, dst_name = parent_and_leaf fs dst in
  fs.rename ~src_dir ~src_name ~dst_dir ~dst_name
