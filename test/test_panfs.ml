(* PA-NFS tests (paper §6.1): protocol round trips, DPAPI over the wire,
   client-local freezes, the >64 KB transaction path, orphaned-transaction
   cleanup after a client crash, version branching under close-to-open
   consistency, and the Figure 1 two-server topology. *)

open Pass_core

let check = Alcotest.check
let tint = Alcotest.int
let tbool = Alcotest.bool
let tstr = Alcotest.string

let ok = Helpers.ok
let ok_fs = Helpers.ok_fs

(* One client machine (a Pass-mode System with a local volume) plus a PA
   server mounted at /nfs0.  Everything shares one clock, so server disk
   time appears as client-visible latency, and one registry (the
   machine's), so tests read every layer's counters from
   [System.telemetry]. *)
let pa_setup () =
  let sys = System.create ~mode:System.Pass ~machine:1 ~volume_names:[ "local" ] () in
  let server =
    Server.create ~registry:(System.telemetry sys) ~mode:Server.Pass_enabled
      ~clock:(System.clock sys) ~machine:2 ~volume:"nfs0" ()
  in
  let net, clients = Runner.mount_nfs ~piggyback:true sys System.Pass [ ("nfs0", server) ] in
  (sys, server, List.hd clients, net)

let write_via_kernel sys ~pid ~path ~data =
  let k = System.kernel sys in
  let fd = ok_fs (Kernel.open_file k ~pid ~path ~create:true) in
  ok_fs (Kernel.write k ~pid ~fd ~data);
  ok_fs (Kernel.close k ~pid ~fd)

let read_via_kernel sys ~pid ~path =
  let k = System.kernel sys in
  let fd = ok_fs (Kernel.open_file k ~pid ~path ~create:false) in
  let st = ok_fs (Kernel.stat k ~path) in
  let data = ok_fs (Kernel.read k ~pid ~fd ~len:st.Vfs.st_size) in
  ok_fs (Kernel.close k ~pid ~fd);
  data

let test_plain_nfs_roundtrip () =
  let sys = System.create ~mode:System.Vanilla ~machine:1 ~volume_names:[ "local" ] () in
  let clock = System.clock sys in
  let server = Server.create ~mode:Server.Plain ~clock ~machine:2 ~volume:"nfs0" () in
  let net, _ = Runner.mount_nfs ~piggyback:true sys System.Vanilla [ ("nfs0", server) ] in
  let pid = Kernel.fork (System.kernel sys) ~parent:Kernel.init_pid in
  let before = Simdisk.Clock.now clock in
  write_via_kernel sys ~pid ~path:"/nfs0/hello.txt" ~data:"over the wire";
  check tstr "remote roundtrip" "over the wire" (read_via_kernel sys ~pid ~path:"/nfs0/hello.txt");
  check tbool "network time charged" true (Simdisk.Clock.now clock > before);
  check tbool "rpcs counted" true (Helpers.counter (System.telemetry sys) "panfs.rpcs" > 0);
  check tbool "bytes counted" true (net.Proto.bytes > 0)

let test_panfs_ancestry_at_server () =
  let sys, server, _client, _net = pa_setup () in
  let k = System.kernel sys in
  let writer = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid:writer ~path:"/nfs0/input.dat" ~data:"input-bytes";
  let worker = Kernel.fork k ~parent:Kernel.init_pid in
  let data = read_via_kernel sys ~pid:worker ~path:"/nfs0/input.dat" in
  write_via_kernel sys ~pid:worker ~path:"/nfs0/output.dat" ~data:(data ^ "!");
  ignore (Server.drain server : int);
  let db = Option.get (Server.db server) in
  check tbool "server db acyclic" true (Helpers.acyclic db);
  let names =
    Helpers.pql_names db
      {|select A from Provenance.file as O O.input* as A where O.name = "output.dat"|}
  in
  check tbool "server sees full chain" true (List.mem "input.dat" names)

let test_local_freeze_no_rpc () =
  let sys, _server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/f" ~data:"v0";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/f") in
  let rpcs () = Helpers.counter (System.telemetry sys) "panfs.rpcs" in
  let rpcs_before = rpcs () in
  let v = ok (Client.pass_freeze client h) in
  check tint "no rpc for freeze" rpcs_before (rpcs ());
  let r = ok (Client.pass_read client h ~off:0 ~len:2) in
  check tint "local version served" v r.Dpapi.r_version;
  check tstr "data still correct" "v0" r.Dpapi.data

let test_freeze_record_reaches_server () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/f" ~data:"v0";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/f") in
  let v = ok (Client.pass_freeze client h) in
  (* next write carries the pending freeze record *)
  let _ = ok (Client.pass_write client h ~off:0 ~data:(Some "v1") []) in
  ignore (Server.drain server : int);
  check tint "server adopted the version" v
    (Ctx.current_version (Server.ctx server) h.Dpapi.pnode);
  let db = Option.get (Server.db server) in
  let node = Option.get (Provdb.find_node db h.Dpapi.pnode) in
  check tbool "db knows the new version" true (node.Provdb.max_version >= v)

let test_large_write_uses_txn () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/big" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/big") in
  (* a bundle bigger than 64 KB: many identity records *)
  let records =
    List.init 3000 (fun i -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "param-%06d" i)))
  in
  let bundle = [ Dpapi.entry h records ] in
  check tbool "bundle really is over the limit" true
    (Dpapi.bundle_size bundle > Proto.block_limit);
  let _ = ok (Client.pass_write client h ~off:0 ~data:(Some "payload") bundle) in
  let counter = Helpers.counter (System.telemetry sys) in
  check tbool "a transaction was used" true (counter "panfs.txns" >= 1);
  let orphans = Server.drain server in
  check tint "no orphans" 0 orphans;
  check tbool "txn committed" true (counter "waldo.txns_committed" >= 1);
  let db = Option.get (Server.db server) in
  let quads = Provdb.records_all db h.Dpapi.pnode in
  let params = List.filter (fun (q : Record.t) -> q.attr = "PARAMS") quads in
  check tint "all records ingested" 3000 (List.length params)

let test_orphaned_txn_discarded () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/victim" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/victim") in
  (* client starts a transaction, sends provenance, then dies *)
  let txn = ok (Client.begin_txn client) in
  let chunk = [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "never-committed") ] ] in
  ok (Client.send_prov_chunk client ~txn chunk);
  Client.crash client;
  (match Client.pass_read client h ~off:0 ~len:1 with
  | Error Dpapi.Ecrashed -> ()
  | _ -> Alcotest.fail "crashed client must not respond");
  let orphans = Server.drain server in
  check tint "one orphan discarded" 1 orphans;
  let db = Option.get (Server.db server) in
  let leaked =
    List.exists
      (fun (q : Record.t) -> q.value = Pvalue.Str "never-committed")
      (Provdb.records_all db h.Dpapi.pnode)
  in
  check tbool "orphaned provenance never ingested" false leaked

let test_version_branching () =
  (* Two clients of one server, close-to-open consistency: both freeze the
     same file from the same base version and arrive at the same version
     number — version branching, which the paper accepts (§6.1.2). *)
  let clock = Simdisk.Clock.create () in
  let server = Server.create ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" () in
  let net = Proto.net clock in
  let ctx1 = Ctx.create ~machine:11 and ctx2 = Ctx.create ~machine:12 in
  let c1 = Client.create ~net ~handler:(Server.handle server) ~ctx:ctx1 ~mount_name:"nfs0" () in
  let c2 = Client.create ~net ~handler:(Server.handle server) ~ctx:ctx2 ~mount_name:"nfs0" () in
  (* create the shared file via c1 *)
  let ino = ok_fs (Vfs.write_file (Client.ops c1) "/shared" "base") in
  let h1 = ok_fs (Client.file_handle c1 ino) in
  let h2 = ok_fs (Client.file_handle c2 ino) in
  let _ = ok (Client.pass_read c1 h1 ~off:0 ~len:4) in
  let _ = ok (Client.pass_read c2 h2 ~off:0 ~len:4) in
  let v1 = ok (Client.pass_freeze c1 h1) in
  let v2 = ok (Client.pass_freeze c2 h2) in
  check tint "both clients branch to the same version" v1 v2;
  (* both flush; the server's view converges on max *)
  let _ = ok (Client.pass_write c1 h1 ~off:0 ~data:(Some "one") []) in
  let _ = ok (Client.pass_write c2 h2 ~off:0 ~data:(Some "two") []) in
  ok_fs (Client.flush c1);
  ok_fs (Client.flush c2);
  check tint "server converged" v1 (Ctx.current_version (Server.ctx server) h1.Dpapi.pnode)

let test_figure1_two_servers () =
  (* The Figure 1 topology: a workstation with a local disk plus two NFS
     servers; inputs on server A, outputs on server B, intermediates local.
     The unified (merged) database answers the cross-layer ancestry query;
     each server's database alone cannot. *)
  let fig = Runner.figure1 () in
  let sys = fig.Runner.workstation in
  let k = System.kernel sys in
  (* colleague writes the input on server A *)
  let colleague = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid:colleague ~path:"/nfsA/align.in" ~data:"brain-scan-data";
  (* the workstation workflow: read A, stage locally, write B *)
  let wf = Kernel.fork k ~parent:Kernel.init_pid in
  let input = read_via_kernel sys ~pid:wf ~path:"/nfsA/align.in" in
  write_via_kernel sys ~pid:wf ~path:"/local/stage.tmp" ~data:(input ^ ":aligned");
  let staged = read_via_kernel sys ~pid:wf ~path:"/local/stage.tmp" in
  write_via_kernel sys ~pid:wf ~path:"/nfsB/atlas-x.gif" ~data:(staged ^ ":sliced");
  (* drain every database and merge *)
  let merged = Runner.figure1_merged fig in
  check tbool "merged db acyclic" true (Helpers.acyclic merged);
  let names =
    Helpers.pql_names merged
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "full chain crosses all three volumes" true
    (List.mem "align.in" names && List.mem "stage.tmp" names);
  (* without layering: server B alone does not know the remote input *)
  let b_only =
    Helpers.pql_names (Option.get (Server.db fig.Runner.server_b))
      {|select Ancestor
        from Provenance.file as Atlas
             Atlas.input* as Ancestor
        where Atlas.name = "atlas-x.gif"|}
  in
  check tbool "server B alone cannot see align.in" false (List.mem "align.in" b_only)

let test_server_disk_crash () =
  (* the server's disk dies mid-write: the client sees ECRASH, and after
     revival WAP recovery never flags completed writes — only (possibly)
     the in-flight one.  Scan several crash points; at least one must
     leave a detectable half-written state. *)
  let flagged_inflight = ref false in
  for crash_after = 0 to 11 do
    let sys, server, client, _net = pa_setup () in
    let k = System.kernel sys in
    let pid = Kernel.fork k ~parent:Kernel.init_pid in
    write_via_kernel sys ~pid ~path:"/nfs0/stable.dat" ~data:"stable";
    let stable_h = ok_fs (Kernel.handle_of_path k "/nfs0/stable.dat") in
    (* a fresh file so the write needs a new provenance frame *)
    let ino =
      match (Client.ops client).Vfs.create ~dir:Ext3.root_ino "victim.dat" Vfs.Regular with
      | Ok ino -> ino
      | Error e -> Alcotest.failf "create: %s" (Vfs.errno_to_string e)
    in
    let h = ok_fs (Client.file_handle client ino) in
    Simdisk.Disk.schedule_crash (Server.disk server) ~after_writes:crash_after;
    (match
       Result.bind
         (Client.pass_write client h ~off:0 ~data:(Some (Helpers.payload ~seed:3 ~len:2048)) [])
         (fun _ ->
           (* the piggybacked write reaches the wire at the flush point *)
           match Client.flush client with
           | Ok () -> Ok 0
           | Error Vfs.ECRASH -> Error Dpapi.Ecrashed
           | Error _ -> Error Dpapi.Eio)
     with
    | Error Dpapi.Ecrashed -> () (* the interesting case *)
    | Ok _ -> () (* the whole write fit before the crash point *)
    | Error e -> Alcotest.failf "unexpected error %s" (Dpapi.error_to_string e));
    (* note: reads served from the server's page cache can still succeed;
       only disk-touching operations observe the crash *)
    Simdisk.Disk.revive (Server.disk server);
    let remounted = Ext3.mount (Server.disk server) in
    let report = ok_fs (Recovery.scan (Ext3.ops remounted)) in
    List.iter
      (fun (i : Recovery.inconsistency) ->
        check tbool
          (Printf.sprintf "crash point %d: completed write never flagged" crash_after)
          false
          (Pnode.equal i.i_pnode stable_h.Dpapi.pnode);
        if Pnode.equal i.i_pnode h.Dpapi.pnode then flagged_inflight := true)
      report.inconsistent
  done;
  check tbool "some crash point exposes the in-flight write" true !flagged_inflight

let test_chunk_bundle () =
  let alloc = Pnode.allocator ~machine:7 in
  let h = Dpapi.handle ~volume:"v" (Pnode.fresh alloc) in
  (* one oversized entry: must split into several chunks, preserving the
     record order and total count *)
  let records =
    List.init 5000 (fun i -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "r%05d" i)))
  in
  let chunks = Client.chunk_bundle [ Dpapi.entry h records ] in
  check tbool "split into several" true (List.length chunks > 1);
  List.iter
    (fun chunk ->
      check tbool "each chunk under the limit" true
        (Dpapi.bundle_size chunk <= Proto.block_limit))
    chunks;
  let flattened =
    List.concat_map
      (fun chunk ->
        List.concat_map (fun (e : Dpapi.bundle_entry) -> e.records) chunk)
      chunks
  in
  check tint "no record lost" (List.length records) (List.length flattened);
  check tbool "order preserved" true (List.for_all2 Record.equal records flattened)

(* --- wire codec round trips -------------------------------------------------- *)

(* encode -> decode -> re-encode must be byte-identical and consume the
   whole buffer: the codecs define the wire format whose length the
   transport charges for every message it delivers by value. *)
let rt_req (r : Proto.req) =
  let b = Buffer.create 64 in
  Proto.encode_req b r;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let r' = Proto.decode_req s pos in
  let b2 = Buffer.create 64 in
  Proto.encode_req b2 r';
  !pos = String.length s && String.equal s (Buffer.contents b2)

let rt_resp (r : Proto.resp) =
  let b = Buffer.create 64 in
  Proto.encode_resp b r;
  let s = Buffer.contents b in
  let pos = ref 0 in
  let r' = Proto.decode_resp s pos in
  let b2 = Buffer.create 64 in
  Proto.encode_resp b2 r';
  !pos = String.length s && String.equal s (Buffer.contents b2)

let test_proto_roundtrip_exhaustive () =
  let p = Pnode.of_int 77 in
  let h = Dpapi.handle ~volume:"nfs0" p in
  let bundle = [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "x"); Record.name "f" ] ] in
  let reqs : Proto.req list =
    [
      Lookup { dir = 1; name = "a" };
      Create { dir = 1; name = "b"; kind = Vfs.Regular };
      Create { dir = 1; name = "d"; kind = Vfs.Directory };
      Remove { dir = 2; name = "c" };
      Rename { src_dir = 1; src_name = "a"; dst_dir = 2; dst_name = "b" };
      Getattr { ino = 3 };
      Readdir { ino = 1 };
      Read { ino = 3; off = 5; len = 9 };
      Write { ino = 3; off = 0; data = "payload" };
      Truncate { ino = 3; size = 42 };
      Commit { ino = 3 };
      Op_passread { pnode = p; off = 1; len = 2 };
      Op_passwrite { pnode = p; off = 0; data = Some "d"; bundle; txn = Some 7 };
      Op_passwrite { pnode = p; off = 8; data = None; bundle = []; txn = None };
      Op_begintxn;
      Op_passprov { txn = 9; chunk = bundle };
      Op_passmkobj;
      Op_passreviveobj { pnode = p; version = 4 };
      Op_passsync { pnode = p };
      Op_pnode { ino = 6 };
      Op_passbatch { writes = [] };
      Op_passbatch
        {
          writes =
            [
              { bi_pnode = p; bi_off = 0; bi_data = Some "d"; bi_bundle = bundle };
              { bi_pnode = p; bi_off = 9; bi_data = None; bi_bundle = [] };
            ];
        };
    ]
  in
  let resps : Proto.resp list =
    [
      R_err Vfs.ENOENT;
      R_err Vfs.EAGAIN;
      R_err Vfs.ECRASH;
      R_ino 12;
      R_ok;
      R_attr { Vfs.st_ino = 3; st_kind = Vfs.Regular; st_size = 100 };
      R_names [ "a"; "b"; "c" ];
      R_names [];
      R_data "bytes";
      R_passread { data = "d"; pnode = p; version = 2 };
      R_version 5;
      R_txn 8;
      R_handle { pnode = p };
      R_batch [];
      R_batch [ R_version 1; R_version 2; R_err Vfs.EIO ];
    ]
  in
  List.iteri (fun i r -> check tbool (Printf.sprintf "req #%d" i) true (rt_req r)) reqs;
  List.iteri (fun i r -> check tbool (Printf.sprintf "resp #%d" i) true (rt_resp r)) resps;
  (* the call envelope too *)
  let call =
    { Proto.c_client = 3; c_seq = 41; c_trace = 7; c_span = 9;
      c_req = Getattr { ino = 3 } }
  in
  let b = Buffer.create 64 in
  Proto.encode_call b call;
  let s = Buffer.contents b in
  let c' = Proto.decode_call s (ref 0) in
  let b2 = Buffer.create 64 in
  Proto.encode_call b2 c';
  check tstr "call envelope round trip" s (Buffer.contents b2)

(* Generators shared by the wire properties: every constructor, with
   data absent, empty, short and past 4 KB, bundle entries with and
   without a volume, writes inside and outside a transaction, and empty
   and mixed OP_PASSBATCH / R_batch lists. *)
module Gen_proto = struct
  open QCheck2.Gen

  let name = string_size ~gen:printable (int_range 1 24)

  let payload =
    oneof
      [ pure ""; string_size ~gen:char (int_range 1 200);
        string_size ~gen:char (int_range 4097 6000) ]

  let data = option payload
  let ino = int_range 0 10_000
  let off = int_range 0 1_000_000
  let pnode = map Pnode.of_int (int_range 1 1_000_000)

  let bundle =
    let value =
      oneof [ map (fun v -> Pvalue.Str v) payload; map (fun i -> Pvalue.Int i) int ]
    in
    let record = map2 Record.make name value in
    let entry =
      map3
        (fun p volume rs -> Dpapi.entry (Dpapi.handle ?volume p) rs)
        pnode (option name)
        (list_size (int_range 0 5) record)
    in
    list_size (int_range 0 3) entry

  let item =
    map
      (fun (((p, o), d), b) -> { Proto.bi_pnode = p; bi_off = o; bi_data = d; bi_bundle = b })
      (pair (pair (pair pnode off) data) bundle)

  let req =
    oneof
      [
        map2 (fun d n -> Proto.Lookup { dir = d; name = n }) ino name;
        map3
          (fun d n k ->
            Proto.Create { dir = d; name = n; kind = (if k then Vfs.Regular else Vfs.Directory) })
          ino name bool;
        map2 (fun d n -> Proto.Remove { dir = d; name = n }) ino name;
        map
          (fun (((sd, sn), dd), dn) ->
            Proto.Rename { src_dir = sd; src_name = sn; dst_dir = dd; dst_name = dn })
          (pair (pair (pair ino name) ino) name);
        map (fun i -> Proto.Getattr { ino = i }) ino;
        map (fun i -> Proto.Readdir { ino = i }) ino;
        map3 (fun i o l -> Proto.Read { ino = i; off = o; len = l }) ino off small_nat;
        map3 (fun i o d -> Proto.Write { ino = i; off = o; data = d }) ino off payload;
        map2 (fun i s -> Proto.Truncate { ino = i; size = s }) ino off;
        map (fun i -> Proto.Commit { ino = i }) ino;
        map3 (fun p o l -> Proto.Op_passread { pnode = p; off = o; len = l }) pnode off small_nat;
        map
          (fun (((p, o), d), (b, t)) ->
            Proto.Op_passwrite { pnode = p; off = o; data = d; bundle = b; txn = t })
          (pair (pair (pair pnode off) data) (pair bundle (option small_nat)));
        pure Proto.Op_begintxn;
        map2 (fun t c -> Proto.Op_passprov { txn = t; chunk = c }) small_nat bundle;
        pure Proto.Op_passmkobj;
        map2 (fun p v -> Proto.Op_passreviveobj { pnode = p; version = v }) pnode small_nat;
        map (fun p -> Proto.Op_passsync { pnode = p }) pnode;
        map (fun i -> Proto.Op_pnode { ino = i }) ino;
        map (fun ws -> Proto.Op_passbatch { writes = ws }) (list_size (int_range 0 6) item);
      ]

  let call =
    map
      (fun (((c_client, c_seq), (c_trace, c_span)), c_req) ->
        { Proto.c_client; c_seq; c_trace; c_span; c_req })
      (pair (pair (pair nat nat) (pair nat nat)) req)

  let errno =
    oneofl
      Vfs.[ ENOENT; EEXIST; ENOTDIR; EISDIR; ENOTEMPTY; EINVAL; EIO; ENOSPC; EBADF; ESTALE;
            ECRASH; EAGAIN ]

  let leaf_resp =
    oneof
      [
        map (fun e -> Proto.R_err e) errno;
        map (fun i -> Proto.R_ino i) ino;
        pure Proto.R_ok;
        map2
          (fun i n ->
            Proto.R_attr
              { Vfs.st_ino = i; st_kind = (if n mod 2 = 0 then Vfs.Regular else Vfs.Directory);
                st_size = n })
          ino off;
        map (fun ns -> Proto.R_names ns) (list_size (int_range 0 5) name);
        map (fun d -> Proto.R_data d) payload;
        map3 (fun d p v -> Proto.R_passread { data = d; pnode = p; version = v }) payload pnode
          small_nat;
        map (fun v -> Proto.R_version v) small_nat;
        map (fun id -> Proto.R_txn id) small_nat;
        map (fun p -> Proto.R_handle { pnode = p }) pnode;
      ]

  let resp =
    oneof
      [ leaf_resp; map (fun rs -> Proto.R_batch rs) (list_size (int_range 0 6) leaf_resp) ]
end

let prop_proto_roundtrip =
  QCheck2.Test.make ~name:"proto: every req round-trips the wire" ~count:300 Gen_proto.req rt_req

let encoded_length encode x =
  let buf = Buffer.create 256 in
  encode buf x;
  Buffer.length buf

(* The transport charges every datagram with the twins, so each must
   equal its encoder's length exactly. *)
let prop_proto_sizes =
  QCheck2.Test.make ~name:"proto: call_size/resp_size = encoded length" ~count:500
    ~print:(fun ((c : Proto.call), r) ->
      Printf.sprintf "%s: call_size %d, encoded %d; resp_size %d, encoded %d"
        (Proto.req_name c.c_req) (Proto.call_size c) (encoded_length Proto.encode_call c)
        (Proto.resp_size r) (encoded_length Proto.encode_resp r))
    QCheck2.Gen.(pair Gen_proto.call Gen_proto.resp)
    (fun (c, r) ->
      Proto.call_size c = encoded_length Proto.encode_call c
      && Proto.resp_size r = encoded_length Proto.encode_resp r)

(* --- by-value replay ---------------------------------------------------------- *)

(* Calls cross the simulated wire as values, so a duplicate delivery or a
   retransmission hands the server the very value it has already served.
   A fault spec loses the reply to one client's Create and delivers
   another client's OP_PASSBATCH twice: each must still apply exactly
   once (the replay hits the duplicate-request cache), and the server
   must end with the database of the fault-free run. *)
let test_by_value_replay () =
  let run ~faults =
    let clock = Simdisk.Clock.create () and registry = Telemetry.create () in
    let server =
      Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" ()
    in
    (* [spec]'s fault fires on the client's first call, and only there *)
    let first_call (spec : Fault.spec) =
      if faults then
        Fault.plan ~registry ~spec:{ spec with net_after_op = 0; net_until_op = 1 } ~seed:1 ()
      else Fault.none
    in
    (* each client on its own link, so each has its own fault plan;
       client ids are allocated per link, so the second link skips the
       first id to keep the two clients' DRC keys apart *)
    let client ~skip_id machine spec =
      let net = Proto.net ~fault:(first_call spec) clock in
      if skip_id then ignore (Proto.fresh_client net : int);
      let delivered = ref [] in
      let handler (c : Proto.call) =
        delivered := Proto.req_name c.c_req :: !delivered;
        Server.handle server c
      in
      let c =
        Client.create ~registry ~net ~handler ~ctx:(Ctx.create ~machine) ~mount_name:"nfs0" ()
      in
      (c, fun () -> List.rev !delivered)
    in
    let c1, delivered1 = client ~skip_id:false 11 { Fault.quiet with drop_response = 1000 } in
    let c2, delivered2 = client ~skip_id:true 12 { Fault.quiet with duplicate = 1000 } in
    let ino = ok_fs ((Client.ops c1).Vfs.create ~dir:Ext3.root_ino "f" Vfs.Regular) in
    let hs =
      List.map
        (fun name ->
          let ino = ok_fs (Vfs.create_path (Client.ops c1) ("/" ^ name) Vfs.Regular) in
          (name, ok_fs (Client.file_handle c1 ino)))
        [ "a"; "b"; "c" ]
    in
    List.iter
      (fun (name, h) ->
        ignore
          (ok (Client.pass_write c2 h ~off:0 ~data:(Some ("data-" ^ name))
                 [ Dpapi.entry h [ Record.name name ] ])
            : int))
      hs;
    ok_fs (Client.flush c2);
    ignore (Server.drain server : int);
    let c name = (name, string_of_int (Helpers.counter registry name)) in
    let root = List.sort String.compare (ok_fs ((Client.ops c1).Vfs.readdir Ext3.root_ino)) in
    let contents =
      List.map (fun (name, _) -> (name, ok_fs (Vfs.read_file (Client.ops c1) ("/" ^ name)))) hs
    in
    ( [ ("f", string_of_int ino); ("/", String.concat " " root) ]
      @ contents
      @ [ c "panfs.server.requests"; c "nfs.drc.misses" ],
      (delivered1 (), delivered2 ()),
      (snd (c "nfs.drc.hits"), snd (c "nfs.retries")),
      Provdb.serialize (Option.get (Server.db server)) )
  in
  let applied, delivered, replays, db = run ~faults:true in
  let applied0, delivered0, replays0, db0 = run ~faults:false in
  let names = Alcotest.(list string) in
  check tstr "client 1 opens with the Create" "rpc.create" (List.hd (fst delivered0));
  check names "client 2 sends one OP_PASSBATCH" [ "rpc.passbatch" ] (snd delivered0);
  check names "the Create is retransmitted" ("rpc.create" :: fst delivered0) (fst delivered);
  check names "the OP_PASSBATCH is delivered twice" [ "rpc.passbatch"; "rpc.passbatch" ]
    (snd delivered);
  check Alcotest.(pair string string) "fault-free: no replays" ("0", "0") replays0;
  check Alcotest.(pair string string) "one DRC hit per forced fault, one retransmission"
    ("2", "1") replays;
  check
    Alcotest.(list (pair string string))
    "every request applied exactly once, as in the fault-free run" applied0 applied;
  check tbool "server db serializes as in the fault-free run" true (String.equal db db0)

(* --- recovery after a server crash mid-transaction (ISSUE satellite) --------- *)

let test_server_crash_mid_txn () =
  let sys, server, client, _net = pa_setup () in
  let k = System.kernel sys in
  let pid = Kernel.fork k ~parent:Kernel.init_pid in
  write_via_kernel sys ~pid ~path:"/nfs0/obj" ~data:"seed";
  let h = ok_fs (Kernel.handle_of_path k "/nfs0/obj") in
  let txn = ok (Client.begin_txn client) in
  ok
    (Client.send_prov_chunk client ~txn
       [ Dpapi.entry h [ Record.make "PARAMS" (Pvalue.Str "in-flight") ] ]);
  (* the server host dies before the terminating OP_PASSWRITE *)
  Simdisk.Disk.crash (Server.disk server);
  (match Client.end_txn_write client ~txn h ~off:0 ~data:(Some "final") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "write must not complete on a dead server");
  Simdisk.Disk.revive (Server.disk server);
  (* recovery over the revived medium sees the half-finished transaction *)
  let remounted = Ext3.mount (Server.disk server) in
  let report = ok_fs (Recovery.scan (Ext3.ops remounted)) in
  check tbool "recovery reports the open txn" true (List.mem txn report.Recovery.open_txns);
  (* Waldo's orphan count matches the recovery report exactly *)
  let orphans = Server.drain server in
  check tint "Waldo orphans = recovery's open txns" (List.length report.Recovery.open_txns)
    orphans;
  let db = Option.get (Server.db server) in
  let leaked =
    List.exists
      (fun (q : Record.t) -> q.value = Pvalue.Str "in-flight")
      (Provdb.records_all db h.Dpapi.pnode)
  in
  check tbool "orphaned provenance never ingested" false leaked;
  (* the revived service accepts new work: the client re-creates the object *)
  let ino2 =
    match (Client.ops client).Vfs.create ~dir:Ext3.root_ino "obj.new" Vfs.Regular with
    | Ok ino -> ino
    | Error e -> Alcotest.failf "re-create after revival: %s" (Vfs.errno_to_string e)
  in
  let h2 = ok_fs (Client.file_handle client ino2) in
  let _ = ok (Client.pass_write client h2 ~off:0 ~data:(Some "recreated") []) in
  let r = ok (Client.pass_read client h2 ~off:0 ~len:9) in
  check tstr "recreated object readable" "recreated" r.Dpapi.data

(* --- the write-behind send path ----------------------------------------------- *)

(* Writes that ride one flush behind a write the server refuses stay
   queued: the flush reports the refusal, and the next flush delivers the
   rest, data and provenance both. *)
let test_refused_rider_keeps_the_rest () =
  let clock = Simdisk.Clock.create () in
  let server = Server.create ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" () in
  let net = Proto.net clock in
  let client machine =
    Client.create ~net ~handler:(Server.handle server) ~ctx:(Ctx.create ~machine)
      ~mount_name:"nfs0" ()
  in
  let c1 = client 11 and c2 = client 12 in
  let files =
    List.map
      (fun name ->
        let ino = ok_fs (Vfs.create_path (Client.ops c1) ("/" ^ name) Vfs.Regular) in
        (name, ok_fs (Client.file_handle c1 ino)))
      [ "a"; "b"; "c" ]
  in
  List.iter
    (fun (name, h) ->
      let _ : int =
        ok
          (Client.pass_write c1 h ~off:0 ~data:(Some ("data-" ^ name))
             [ Dpapi.entry h [ Record.name name ] ])
      in
      ())
    files;
  ok_fs ((Client.ops c2).Vfs.unlink ~dir:Ext3.root_ino "a");
  check tbool "the flush reports the refused write" true (Result.is_error (Client.flush c1));
  ok_fs (Client.flush c1);
  ignore (Server.drain server : int);
  let db = Option.get (Server.db server) in
  List.iter
    (fun (name, (h : Dpapi.handle)) ->
      let names =
        List.filter
          (fun (q : Record.t) -> q.attr = Record.Attr.name)
          (Provdb.records_all db h.pnode)
      in
      check tint (name ^ ": NAME record delivered") 1 (List.length names);
      check tstr (name ^ ": data delivered") ("data-" ^ name)
        (ok_fs (Vfs.read_file (Client.ops c2) ("/" ^ name))))
    (List.tl files)

(* The figures a PA-NFS golden pins: simulated time, the send-path
   counters and a digest of the server's drained database. *)
let nfs_pinned ~clock ~registry server =
  ignore (Server.drain server : int);
  let c n = (n, string_of_int (Helpers.counter registry n)) in
  [
    ("clock_ns", string_of_int (Simdisk.Clock.now clock));
    c "panfs.rpcs"; c "panfs.inline_writes"; c "panfs.txns"; c "nfs.batch_rpcs";
    c "nfs.batched_writes";
    ( "provdb_md5",
      Digest.to_hex (Digest.string (Provdb.serialize (Option.get (Server.db server)))) );
  ]

let check_pinned run rows =
  List.iter
    (fun (name, batching, expected) ->
      check
        Alcotest.(list (pair string string))
        (Printf.sprintf "%s, batching %b" name batching)
        expected (run name batching))
    rows

(* Simulated cost of the PA-NFS path, pinned: scaled Postmark and Linux
   compile over PA-NFS, batching on and off.  A change to how the client
   sends provenance that moves an envelope, a counter, simulated time or a
   byte of the server's database fails here. *)
let test_nfs_sim_cost_golden () =
  check_pinned
    (fun name batching ->
      let sys, server = Runner.nfs_system ~batching System.Pass in
      (List.find (fun w -> w.Runner.wl_name = name) (Runner.standard ~scale:0.2 ()))
        .Runner.run sys;
      ignore (System.drain sys : int);
      nfs_pinned ~clock:(System.clock sys) ~registry:(System.telemetry sys) server)
    [
      ( "Postmark", true,
        [ ("clock_ns", "1132471243"); ("panfs.rpcs", "1479"); ("panfs.inline_writes", "286");
          ("panfs.txns", "0"); ("nfs.batch_rpcs", "0"); ("nfs.batched_writes", "0");
          ("provdb_md5", "64d8a539204a54788ce81fdbe0a68bd6") ] );
      ( "Postmark", false,
        [ ("clock_ns", "1132471243"); ("panfs.rpcs", "1479"); ("panfs.inline_writes", "286");
          ("panfs.txns", "0"); ("nfs.batch_rpcs", "0"); ("nfs.batched_writes", "0");
          ("provdb_md5", "64d8a539204a54788ce81fdbe0a68bd6") ] );
      ( "Linux Compile", true,
        [ ("clock_ns", "228368336"); ("panfs.rpcs", "180"); ("panfs.inline_writes", "22");
          ("panfs.txns", "0"); ("nfs.batch_rpcs", "0"); ("nfs.batched_writes", "0");
          ("provdb_md5", "a34f2cdc6aba911ee0838f9fac0a5d52") ] );
      ( "Linux Compile", false,
        [ ("clock_ns", "228368336"); ("panfs.rpcs", "180"); ("panfs.inline_writes", "22");
          ("panfs.txns", "0"); ("nfs.batch_rpcs", "0"); ("nfs.batched_writes", "0");
          ("provdb_md5", "a34f2cdc6aba911ee0838f9fac0a5d52") ] );
    ]

(* The same pins for a scripted client whose riders fill OP_PASSBATCH
   envelopes by count and by size, and which also takes the merge,
   transaction, sync and read routes of the send path.  A sync's pending
   freeze records leave as one lone OP_PASSWRITE, so they count as an
   inline write like any other. *)
let test_nfs_send_path_golden () =
  let scripted batching =
    let clock = Simdisk.Clock.create () and registry = Telemetry.create () in
    let server =
      Server.create ~registry ~mode:Server.Pass_enabled ~clock ~machine:9 ~volume:"nfs0" ()
    in
    let c =
      Client.create ~registry ~piggyback:batching ~net:(Proto.net clock)
        ~handler:(Server.handle server) ~ctx:(Ctx.create ~machine:11) ~mount_name:"nfs0" ()
    in
    let hs =
      List.init 20 (fun i ->
          let ino =
            ok_fs (Vfs.create_path (Client.ops c) (Printf.sprintf "/r%02d" i) Vfs.Regular)
          in
          ok_fs (Client.file_handle c ino))
    in
    let write h ~off data records = ignore (ok (Client.pass_write c h ~off ~data records) : int) in
    List.iteri
      (fun i h ->
        write h ~off:0
          (Some (Helpers.payload ~seed:i ~len:(200 + (300 * i))))
          [ Dpapi.entry h [ Record.name (Printf.sprintf "r%02d" i) ] ])
      hs;
    let h0 = List.hd hs and h1 = List.nth hs 1 in
    write h0 ~off:0 None [ Dpapi.entry h0 [ Record.make "PARAMS" (Pvalue.Str "merged") ] ];
    ignore (ok (Client.pass_freeze c h1) : int);
    write h1 ~off:0
      (Some "big")
      [ Dpapi.entry h1
          (List.init 4000 (fun j -> Record.make "PARAMS" (Pvalue.Str (Printf.sprintf "p%05d" j))))
      ];
    write h0 ~off:0 None [ Dpapi.entry h0 [ Record.make "PARAMS" (Pvalue.Str "alone") ] ];
    ignore (ok (Client.pass_freeze c h0) : int);
    ok ((Client.endpoint c).pass_sync h0);
    ignore (ok (Client.pass_read c h1 ~off:0 ~len:3) : Dpapi.read_result);
    ok_fs (Client.flush c);
    nfs_pinned ~clock ~registry server
  in
  check_pinned
    (fun _ batching -> scripted batching)
    [
      ( "scripted", true,
        [ ("clock_ns", "124295174"); ("panfs.rpcs", "52"); ("panfs.inline_writes", "3");
          ("panfs.txns", "1"); ("nfs.batch_rpcs", "2"); ("nfs.batched_writes", "20");
          ("provdb_md5", "046a7a2c2a440c33e738ed23fc374510") ] );
      ( "scripted", false,
        [ ("clock_ns", "129699942"); ("panfs.rpcs", "70"); ("panfs.inline_writes", "23");
          ("panfs.txns", "1"); ("nfs.batch_rpcs", "0"); ("nfs.batched_writes", "0");
          ("provdb_md5", "046a7a2c2a440c33e738ed23fc374510") ] );
    ]

let test_proto_sizes () =
  let big = Proto.Write { ino = 3; off = 0; data = String.make 10_000 'x' } in
  let small = Proto.Getattr { ino = 3 } in
  check tbool "wire size tracks payload" true
    (Proto.req_size big > 10_000 && Proto.req_size small < 64);
  List.iter
    (fun req ->
      check tint (Proto.req_name req) (encoded_length Proto.encode_req req) (Proto.req_size req))
    [ big; small ]

let suite =
  [
    Alcotest.test_case "plain NFS roundtrip over the wire" `Quick test_plain_nfs_roundtrip;
    Alcotest.test_case "PA-NFS ancestry lands at the server" `Quick
      test_panfs_ancestry_at_server;
    Alcotest.test_case "freeze is client-local (no RPC)" `Quick test_local_freeze_no_rpc;
    Alcotest.test_case "freeze records reach the server in writes" `Quick
      test_freeze_record_reaches_server;
    Alcotest.test_case "large writes use transactions" `Quick test_large_write_uses_txn;
    Alcotest.test_case "client crash orphans are discarded" `Quick test_orphaned_txn_discarded;
    Alcotest.test_case "version branching across clients" `Quick test_version_branching;
    Alcotest.test_case "Figure 1: two servers + workstation" `Quick test_figure1_two_servers;
    Alcotest.test_case "server disk crash + recovery" `Quick test_server_disk_crash;
    Alcotest.test_case "bundle chunking" `Quick test_chunk_bundle;
    Alcotest.test_case "protocol message sizes" `Quick test_proto_sizes;
    Alcotest.test_case "wire codec round trips (all constructors)" `Quick
      test_proto_roundtrip_exhaustive;
    QCheck_alcotest.to_alcotest prop_proto_roundtrip;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5eed |]) prop_proto_sizes;
    Alcotest.test_case "duplicate and lost-reply replays apply once" `Quick
      test_by_value_replay;
    Alcotest.test_case "server crash mid-transaction + recovery" `Quick
      test_server_crash_mid_txn;
    Alcotest.test_case "writes behind a refused rider stay queued" `Quick
      test_refused_rider_keeps_the_rest;
    Alcotest.test_case "PA-NFS simulated cost golden" `Quick test_nfs_sim_cost_golden;
    Alcotest.test_case "PA-NFS send-path golden" `Quick test_nfs_send_path_golden;
  ]
