(* The Blast workload (Table 2, row 4): a biological pipeline that finds
   protein sequences of one species closely related to those of another.
   formatdb prepares the two input files, blast burns a lot of CPU over
   them, and a series of Perl scripts massages the output.  Heavily CPU
   bound — the paper measures under 2% overhead, because provenance
   writes are noise next to the computation. *)

type params = { sequence_bytes : int; blast_cpu_ms : int; perl_stages : int }

let default = { sequence_bytes = 200_000; blast_cpu_ms = 1_200; perl_stages = 3 }

let run ?(params = default) sys ~parent =
  let setup = Process.spawn sys ~parent () in
  Process.write_file setup "/vol0/bin/formatdb" (Wk.payload ~seed:201 ~len:12000);
  Process.write_file setup "/vol0/bin/blastall" (Wk.payload ~seed:202 ~len:45000);
  Process.write_file setup "/vol0/bin/perl" (Wk.payload ~seed:203 ~len:25000);
  Process.write_file setup "/vol0/blast/speciesA.fasta"
    (Wk.payload ~seed:11 ~len:params.sequence_bytes);
  Process.write_file setup "/vol0/blast/speciesB.fasta"
    (Wk.payload ~seed:12 ~len:params.sequence_bytes);
  Process.exit setup;
  (* formatdb on each input *)
  List.iter
    (fun species ->
      let fdb =
        Process.spawn sys ~binary:"/vol0/bin/formatdb" ~argv:[ "formatdb"; "-i"; species ]
          ~parent ()
      in
      let data = Process.read_file fdb (Printf.sprintf "/vol0/blast/%s.fasta" species) in
      Process.cpu fdb 80_000_000;
      Process.write_file fdb
        (Printf.sprintf "/vol0/blast/%s.phr" species)
        (Wk.payload ~seed:(String.length data) ~len:(String.length data / 2));
      Process.exit fdb)
    [ "speciesA"; "speciesB" ];
  (* the blast run itself: the CPU core of the workload *)
  let blast =
    Process.spawn sys ~binary:"/vol0/bin/blastall"
      ~argv:[ "blastall"; "-p"; "blastp"; "-d"; "speciesA"; "-i"; "speciesB.fasta" ]
      ~parent ()
  in
  let a = Process.read_file blast "/vol0/blast/speciesA.phr" in
  let b = Process.read_file blast "/vol0/blast/speciesB.phr" in
  Process.cpu blast (params.blast_cpu_ms * 1_000_000);
  Process.write_file blast "/vol0/blast/raw_hits.out"
    (Wk.payload ~seed:(String.length a + String.length b) ~len:60_000);
  Process.exit blast;
  (* perl massaging pipeline *)
  let prev = ref "/vol0/blast/raw_hits.out" in
  for stage = 1 to params.perl_stages do
    let perl =
      Process.spawn sys ~binary:"/vol0/bin/perl"
        ~argv:[ "perl"; Printf.sprintf "massage%d.pl" stage ]
        ~parent ()
    in
    let data = Process.read_file perl !prev in
    Process.cpu perl 30_000_000;
    let out = Printf.sprintf "/vol0/blast/hits.stage%d" stage in
    Process.write_file perl out
      (Wk.payload ~seed:(String.length data + stage) ~len:(String.length data * 3 / 4));
    Process.exit perl;
    prev := out
  done
