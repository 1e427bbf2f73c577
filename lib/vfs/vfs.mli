(** The VFS interface of the simulated OS.

    File systems — {!Ext3}, the Lasagna stackable layer, and the PA-NFS
    client — all present this record of operations, which is what lets
    Lasagna stack over ext3 locally and over the NFS client remotely
    without either side knowing. *)

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

val errno_to_string : errno -> string

val errno_of_string : string -> errno option
(** Inverse of {!errno_to_string}; [None] for unknown names.  Used by the
    PA-NFS wire decoder. *)

exception Fatal of string * errno
(** A volume-fatal condition hit on a path that cannot return a result
    (mounting a layer, allocating a fresh WAP log).  Carries the errno so
    handlers and logs stay typed; the passlint [bare-failwith] rule bans
    stringly [failwith] on the storage hot paths in favour of this. *)

val fatal : string -> errno -> 'a
(** [fatal what e] raises {!Fatal}. *)

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

val split_path : string -> string list

val lookup_path : ops -> string -> (ino, errno) result
val parent_and_leaf : ops -> string -> (ino * string, errno) result
val mkdir_p : ops -> string -> (ino, errno) result

val create_path : ?mkparents:bool -> ops -> string -> kind -> (ino, errno) result

val read_file : ops -> string -> (string, errno) result
(** Read a whole file by path. *)

val write_file : ?mkparents:bool -> ops -> string -> string -> (ino, errno) result
(** Create-or-truncate [path] and write [data]; returns the inode. *)

val remove_path : ops -> string -> (unit, errno) result
val rename_path : ops -> string -> string -> (unit, errno) result
