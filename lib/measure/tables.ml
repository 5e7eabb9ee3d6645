module Trace = Vino_trace.Trace

type entry = {
  name : string;
  title : string;
  gated : bool;
  notes : ?iterations:int -> unit -> string option;
  rows : ?iterations:int -> ?pool:Vino_par.Pool.t -> unit -> Table.row list;
}

let text s ?iterations:_ () = Some s

let all =
  [
    {
      name = "table3";
      title = "Table 3: Read-ahead graft overhead (Black Box; paper §4.1)";
      gated = true;
      notes =
        text
          "Note: our MiSFIT delta is smaller than the paper's 3us because the\n\
           IR graft is shorter than their compiled C++; every other component\n\
           matches.";
      rows = Sc_readahead.table;
    };
    {
      name = "table4";
      title = "Table 4: Page eviction graft overhead (Prioritization; §4.2)";
      gated = true;
      notes =
        (fun ?iterations () ->
          Some
            (Printf.sprintf
               "Graft overrules the default victim each run. Agreement case: \
                %.1f us\n\
                (paper: 39+120=159 us elapsed); overrule >> agreement matches."
               (Sc_evict.measure_agreement ?iterations ())));
      rows = Sc_evict.table;
    };
    {
      name = "table5";
      title = "Table 5: Scheduling graft overhead (Prioritization; §4.3)";
      gated = true;
      notes =
        text
          "Largest increase comes from transaction+lock costs, ~2x the process\n\
           switch cost, as in the paper (~2% of a 10 ms timeslice).";
      rows = Sc_sched.table;
    };
    {
      name = "table6";
      title =
        "Table 6: Encryption graft overhead (Stream; SFI worst case; §4.4)";
      gated = true;
      notes =
        text
          "MiSFIT roughly doubles the graft function: the graft is almost\n\
           entirely loads and stores.";
      rows = Sc_crypt.table;
    };
    {
      name = "table7";
      title = "Table 7: Graft abort costs (null vs full abort; §4.5)";
      gated = true;
      notes = (fun ?iterations:_ () -> None);
      rows = Abort_model.table7;
    };
    {
      name = "disaster";
      title =
        "Disaster rig: recovery cost by fault class (stream site; seeded)";
      gated = true;
      notes =
        text
          "Delta over the healthy row is detection + abort + removal. Lock-hog\n\
           and nested-fault rows include the contender whose time-out triggers\n\
           the abort; loop rows are budget-bound (200k cycles).";
      rows = (fun ?iterations:_ ?pool () -> Sc_disaster.table ?pool ());
    };
    {
      name = "serve";
      title =
        "Serve: multi-tenant graft server (throughput + latency SLOs, by path \
         and tenant count)";
      gated = true;
      notes =
        text
          "Arrival-to-response latency of an open-loop multi-tenant workload\n\
           (admission control, inherited per-tenant rlimits, bounded LRU\n\
           translation cache). Throughput lines are informational (req/s, not\n\
           us); percentile and makespan lines are gated.";
      rows = (fun ?iterations:_ ?pool () -> Sc_serve.table ?pool ());
    };
    {
      name = "abortmodel";
      title = "Section 4.5 model: abort cost = 35us + 10us*L + c*G";
      gated = false;
      notes =
        (fun ?iterations:_ () ->
          let lo, hi = Abort_model.timeout_latency_bounds () in
          Some
            (Printf.sprintf
               "Timeout latency with the 10 ms clock tick: %.0f..%.0f ms \
                (paper: 10-20 ms)"
               (Vino_vm.Costs.us_of_cycles lo /. 1000.)
               (Vino_vm.Costs.us_of_cycles hi /. 1000.)));
      rows = Abort_model.model_table;
    };
    {
      name = "lockfactor";
      title = "Figures 4/5: conventional vs fully-factored get_lock";
      gated = false;
      notes =
        text
          "Two encapsulated decision points cost two ~35-cycle calls per\n\
           acquire; the factored manager lets a graft change the grant order\n\
           (reader-priority vs fifo-fair traces above).";
      rows = Lock_factor.table;
    };
    {
      name = "calibrate";
      title =
        "Per-resource time-out calibration (paper §3.2/§4.5 future work)";
      gated = false;
      notes =
        text
          "For bitmap-style locks the recommended time-out (~18 us) is far\n\
           below the 10 ms tick: hog recovery is tick-bound at ~10 ms — the\n\
           paper's 'obviously too coarse grain for some resources'.";
      rows = (fun ?iterations:_ ?pool:_ () -> Timeout_calib.table ());
    };
  ]

let gated = List.filter (fun e -> e.gated) all
let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all

let emit ?(json = false) ?pool ?iterations e =
  let notes = e.notes ?iterations () in
  if json && e.gated then begin
    let sink = Trace.create () in
    let rows = Trace.with_t sink (fun () -> e.rows ?iterations ?pool ()) in
    Table.print ~title:e.title ?notes rows;
    let file = Printf.sprintf "BENCH_%s.json" e.name in
    Table.write_json ~file ~name:e.name ~title:e.title
      ~counters:(Trace.counters sink) rows;
    Printf.printf "wrote %s\n%!" file
  end
  else Table.print ~title:e.title ?notes (e.rows ?iterations ?pool ())
