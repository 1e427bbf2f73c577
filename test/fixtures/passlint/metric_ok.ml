(* metric-name fixture: every pvmon rule name and metric source follows
   the dotted snake_case instrument convention — zero findings. *)

let rules =
  [
    Pvmon.rule ~name:"panfs.rpc_p99"
      ~source:(Pvmon.Hist_p99 "panfs.rpc_latency")
      ~threshold:5e6 ();
    Pvmon.rule ~name:"wap.backlog_depth"
      ~source:(Pvmon.Gauge_value "wap.queue_depth")
      ~threshold:64. ();
    Pvmon.rule ~name:"nfs.retry_rate"
      ~source:(Pvmon.Counter_rate "nfs.retries")
      ~for_ticks:2 ~threshold:10. ();
    Pvmon.rule ~name:"dpapi.write_p99"
      ~source:(Pvmon.Span_p99 "analyzer.pass_write")
      ~threshold:5e6 ();
  ]
