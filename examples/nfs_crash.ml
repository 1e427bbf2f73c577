(* Crash consistency end to end (paper §5.6 and §6.1.2).

     dune exec examples/nfs_crash.exe

   Part 1 — WAP on a local volume: crash the disk in the middle of a
   provenance-carrying write and show that recovery identifies exactly
   the data that was in flight (no unprovenanced data can exist).

   Part 2 — PA-NFS transactions: a client starts a large provenance write
   (OP_BEGINTXN + OP_PASSPROV chunks), crashes before the terminating
   OP_PASSWRITE, and the server's Waldo discards the orphaned provenance
   instead of ingesting a half-transaction. *)

module Record = Pass_core.Record
module Pvalue = Pass_core.Pvalue
module Ctx = Pass_core.Ctx
module Dpapi = Pass_core.Dpapi
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

let ok = function Ok v -> v | Error e -> failwith (Vfs.errno_to_string e)
let okd = function Ok v -> v | Error e -> failwith (Dpapi.error_to_string e)

let () =
  print_endline "== crash consistency: WAP and PA-NFS transactions ==\n";

  (* ----- part 1: write-ahead provenance survives a disk crash ---------- *)
  print_endline "--- part 1: WAP recovery on a local volume ---";
  let clock = Clock.create () in
  let disk = Disk.create ~clock () in
  let ext3 = Ext3.format disk in
  let ctx = Ctx.create ~machine:1 in
  let lasagna =
    Lasagna.create ~lower:(Ext3.ops ext3) ~ctx ~volume:"vol0" ~charge:(Clock.advance clock) ()
  in
  let ops = Lasagna.ops lasagna in
  let ep = Lasagna.endpoint lasagna in
  (* a healthy write first *)
  let ino_ok = ok (Vfs.create_path ops "/survivor.dat" Vfs.Regular) in
  let h_ok = ok (Lasagna.file_handle lasagna ino_ok) in
  ignore (okd (ep.pass_write h_ok ~off:0 ~data:(Some "safe and sound") [ Dpapi.entry h_ok [] ]));
  (* now a write that the crash will interrupt: the provenance frame gets
     to the log, the data does not fully reach the file *)
  let ino_bad = ok (Vfs.create_path ops "/victim.dat" Vfs.Regular) in
  let h_bad = ok (Lasagna.file_handle lasagna ino_bad) in
  Disk.schedule_crash disk ~after_writes:3;
  (match
     ep.pass_write h_bad ~off:0
       ~data:(Some (String.init 8192 (fun i -> Char.chr (i land 0xff))))
       [ Dpapi.entry h_bad [ Record.name "victim.dat" ] ]
   with
  | Error Dpapi.Ecrashed -> print_endline "machine crashed mid-write (provenance logged, data torn)"
  | Ok _ -> print_endline "unexpected: write survived"
  | Error e -> Printf.printf "unexpected error: %s\n" (Dpapi.error_to_string e));
  (* power back on: remount and run recovery *)
  Disk.revive disk;
  let remounted = Ext3.mount disk in
  let report = ok (Recovery.scan (Ext3.ops remounted)) in
  Printf.printf "recovery: scanned %d logs, %d frames, %d data identities checked\n"
    report.Recovery.logs_scanned report.frames_ok report.data_checked;
  List.iter
    (fun (inc : Recovery.inconsistency) ->
      Printf.printf "  INCONSISTENT: pnode %d, %d bytes at offset %d (%s)\n"
        (Pass_core.Pnode.to_int inc.i_pnode) inc.i_len inc.i_off inc.reason)
    report.inconsistent;
  Printf.printf "survivor.dat intact: %b — WAP guarantees no unprovenanced data, and\n"
    (match Vfs.read_file (Ext3.ops remounted) "/survivor.dat" with
    | Ok "safe and sound" -> true
    | _ -> false);
  print_endline "recovery names exactly the data that was in flight.\n";

  (* ----- part 2: orphaned PA-NFS transactions --------------------------- *)
  print_endline "--- part 2: a client crash mid-transaction ---";
  let clock = Clock.create () in
  let server = Server.create ~mode:Server.Pass_enabled ~clock ~machine:2 ~volume:"nfs0" () in
  let net = Proto.net clock in
  let cctx = Ctx.create ~machine:3 in
  let client = Client.create ~net ~handler:(Server.handle server) ~ctx:cctx ~mount_name:"nfs0" () in
  let ino = ok (Vfs.write_file (Client.ops client) "/results.dat" "committed-base") in
  let h = ok (Client.file_handle client ino) in
  (* the client begins a transaction for a large provenance write... *)
  let txn = okd (Client.begin_txn client) in
  Printf.printf "client obtained transaction id %d (OP_BEGINTXN)\n" txn;
  okd
    (Client.send_prov_chunk client ~txn
       [ Dpapi.entry h
           (List.init 200 (fun i ->
                Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "uncommitted-%d" i)))) ]);
  print_endline "client sent one OP_PASSPROV chunk (200 records)...";
  (* ...and dies before the terminating OP_PASSWRITE *)
  Client.crash client;
  print_endline "client crashed — no ENDTXN will ever arrive";
  (* the server drains its logs; Waldo refuses the half-transaction *)
  let orphans = Server.drain server in
  let db = Option.get (Server.db server) in
  let leaked =
    List.exists
      (fun (q : Record.t) ->
        match q.value with Pvalue.Str s -> String.length s > 11 && String.sub s 0 11 = "uncommitted" | _ -> false)
      (Provdb.records_all db h.Dpapi.pnode)
  in
  Printf.printf "server Waldo: discarded %d orphaned transaction(s); leaked records: %b\n"
    orphans leaked;
  print_endline "\nthe transaction id is what lets the server identify orphaned provenance —";
  print_endline "the paper's §6.1.2 argument for transactions over mandatory locks."
