module Serve = Vino_net.Serve

let default_tenant_counts = [ 1; 4; 12 ]

let report ?pool ~tenants ~path () =
  Serve.run ?pool { Serve.default with Serve.tenants; path }

(* Latency percentiles are elapsed-microsecond rows the gate watches;
   throughput is not a time, so it rides along as an incremental
   (ungated, informational) line — the JSON still carries it. *)
let rows ?pool ~tenants ~path () =
  let r = report ?pool ~tenants ~path () in
  let p50, p99, p999 = Serve.latency_percentiles r in
  let label s =
    Printf.sprintf "t=%d %s %s" tenants (Serve.path_name path) s
  in
  [
    Table.elapsed (label "makespan") r.Serve.drain_us;
    Table.elapsed (label "p50") p50;
    Table.elapsed (label "p99") p99;
    Table.elapsed (label "p999") p999;
    Table.overhead (label "throughput (req/s)") r.Serve.throughput_rps;
  ]

let table ?(tenant_counts = default_tenant_counts)
    ?(paths = Serve.all_paths) ?pool () =
  List.concat_map
    (fun tenants ->
      List.concat_map (fun path -> rows ?pool ~tenants ~path ()) paths)
    tenant_counts
