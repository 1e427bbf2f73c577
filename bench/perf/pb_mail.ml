(* mailstore_local: a Postmark-shaped mail store on Lasagna -> ext3 ->
   simdisk.  Set-up fills a pool of files (4-128 KB) over ten
   subdirectories.  Each op is one Postmark transaction: a read of a
   whole file or an append of up to 8 KB, then a create or a delete,
   each half drawn evenly.  (Pairing the halves, as Postmark does, keeps
   the op-latency distribution free of the gaps a median would fall
   into.)  The pool's live set is several times ext3's stacked page
   cache, so the data path does most of the work. *)

module G = Pb_gen
module M = Pb_machine

type size = { pool : int; ops : int }

let min_file = 4096
let max_file = 131072
let max_append = 8192

(* The model of one file: the payload segments written to it, and the
   digest of their concatenation, recomputed only after a change. *)
type file = {
  path : string;
  mutable segs : (int * int) list;  (* (payload seed, length), newest first *)
  mutable size : int;
  mutable digest : Digest.t option;
}

let expected_digest f =
  match f.digest with
  | Some d -> d
  | None ->
      let d =
        Digest.string
          (String.concat "" (List.rev_map (fun (seed, len) -> G.payload ~seed ~len) f.segs))
      in
      f.digest <- Some d;
      d

(* The live set, with O(1) uniform picks and removals. *)
type live = { mutable files : file array; mutable n : int }

let add live f =
  if live.n = Array.length live.files then begin
    let bigger = Array.make (max 16 (2 * live.n)) f in
    Array.blit live.files 0 bigger 0 live.n;
    live.files <- bigger
  end;
  live.files.(live.n) <- f;
  live.n <- live.n + 1

let take live i =
  let f = live.files.(i) in
  live.n <- live.n - 1;
  live.files.(i) <- live.files.(live.n);
  f

let setup ~traced ~seed (size : size) : Pb_round.t =
  let m = M.create ~traced ~remote:false in
  let r = G.rng ~seed ~stream:1 in
  let pid = M.fork m ~parent:Kernel.init_pid in
  let live = { files = [||]; n = 0 } in
  (* exact halves and stratified sizes: a seed changes the order and
     pairing of the work, not how much of it there is *)
  let reads = G.balanced r ~n:size.ops [ (true, 1); (false, 1) ] in
  let creates = G.balanced r ~n:size.ops [ (true, 1); (false, 1) ] in
  let sizes = G.stratified r ~n:(size.pool + size.ops) ~lo:min_file ~hi:max_file in
  let appends = G.stratified r ~n:size.ops ~lo:1 ~hi:max_append in
  let next_id = ref 0 in
  let create () =
    let id = !next_id in
    incr next_id;
    let seed = G.next r in
    let len = sizes.(id) in
    let f =
      { path = Printf.sprintf "/vol0/mail/s%d/m%d" (id mod 10) id; segs = [ (seed, len) ];
        size = len; digest = None }
    in
    add live f;
    let data = G.payload ~seed ~len in
    fun () -> M.write_file m ~pid ~path:f.path data
  in
  for _ = 1 to size.pool do
    create () ()
  done;
  let gen k : Pb_round.op =
    (* the pool never empties: creates and deletes balance *)
    let f = live.files.(G.int r live.n) in
    let got = ref "" in
    let first, check =
      if reads.(k) then
        let want = expected_digest f and want_len = f.size in
        ( (fun () -> got := M.read_file m ~pid ~path:f.path),
          fun () -> String.length !got = want_len && Digest.equal (Digest.string !got) want )
      else begin
        let seed = G.next r and len = appends.(k) in
        let data = G.payload ~seed ~len in
        f.segs <- (seed, len) :: f.segs;
        f.size <- f.size + len;
        f.digest <- None;
        ((fun () -> M.append_file m ~pid ~path:f.path data), fun () -> true)
      end
    in
    let second =
      if creates.(k) then create ()
      else
        let gone = take live (G.int r live.n) in
        fun () -> M.unlink m ~pid ~path:gone.path
    in
    { run = (fun () -> first (); second ()); check }
  in
  let user_bytes () =
    let total = ref 0 in
    for i = 0 to live.n - 1 do
      total := !total + live.files.(i).size
    done;
    !total
  in
  { m; n_ops = size.ops; gen; restart_first = false; adopt = (fun _ -> ()); user_bytes;
    verify = (fun () -> []); extra = Pb_round.no_extra }
