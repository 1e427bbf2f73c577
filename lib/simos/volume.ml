(* One storage volume in either configuration: disk -> ext3, and in PASS
   mode Lasagna stacked over ext3 with a Waldo consuming its closed logs.
   System (a local machine) and the PA-NFS server both build their
   volumes here, so the two run the same stack (paper §6.1.1). *)

module Dpapi = Pass_core.Dpapi
module Clock = Simdisk.Clock
module Disk = Simdisk.Disk

type t = {
  v_name : string;
  v_disk : Disk.t;
  v_ext3 : Ext3.t;
  v_lasagna : Lasagna.t option;
  v_waldo : Waldo.t option;
}

let create ~registry ~fault ~tracer ~clock ~ctx ~group_commit ~pass name =
  let disk = Disk.create ~registry ~fault ~clock () in
  let ext3 = Ext3.format disk in
  if not pass then
    ({ v_name = name; v_disk = disk; v_ext3 = ext3; v_lasagna = None; v_waldo = None }, None)
  else begin
    (* stacking halves the effective page cache: Lasagna caches its own
       pages and the lower file system's pages (paper §7) *)
    Ext3.set_cache_capacity ext3 2048;
    let lasagna =
      Lasagna.create ~registry ~now:(fun () -> Clock.now clock) ~tracer ~group_commit
        ~lower:(Ext3.ops ext3) ~ctx ~volume:name ~charge:(Clock.advance clock) ()
    in
    let waldo = Waldo.create ~registry ~tracer ~lower:(Ext3.ops ext3) () in
    Waldo.attach waldo lasagna;
    ( { v_name = name; v_disk = disk; v_ext3 = ext3; v_lasagna = Some lasagna;
        v_waldo = Some waldo },
      Some (Dpapi.traced ~tracer ~layer:"lasagna" (Lasagna.endpoint lasagna)) )
  end

let ops v = match v.v_lasagna with Some l -> Lasagna.ops l | None -> Ext3.ops v.v_ext3

let drain v =
  match (v.v_lasagna, v.v_waldo) with Some l, Some w -> Waldo.finalize w l | _ -> 0

let db v = Option.map Waldo.db v.v_waldo
