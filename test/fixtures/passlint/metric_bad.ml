(* metric-name fixture: four violations, one per site the rule covers —
   a camelCase rule name, a single-segment Counter_rate source, an
   uppercase Gauge_value source and a camelCase Span_p99 source. *)

let rules =
  [
    Pvmon.rule ~name:"dpapiWriteP99"
      ~source:(Pvmon.Hist_p99 "panfs.rpc_latency")
      ~threshold:5e6 ();
    Pvmon.rule ~name:"nfs.retry_rate"
      ~source:(Pvmon.Counter_rate "retries")
      ~threshold:10. ();
    Pvmon.rule ~name:"wap.backlog_depth"
      ~source:(Pvmon.Gauge_value "wap.Queue_Depth")
      ~threshold:64. ();
    Pvmon.rule ~name:"dpapi.write_p99"
      ~source:(Pvmon.Span_p99 "analyzer.passWrite")
      ~threshold:5e6 ();
  ]
