(* Every metric the benchmark reports: name, unit, direction, whether it
   is exact (virtual time or a count, identical for one seed on any
   machine) or host-noisy, and for a per-layer metric the end-to-end
   metric and workload it should move. [hostbench.exe --catalogue] prints
   this list; BENCHMARK.json and METRICS.json are written from it. *)

type metric = {
  name : string;
  unit : string;
  higher_better : bool;
  exact : bool;
  bound : float;  (** end-to-end only: allowed worsening, share of median *)
  moves : string;  (** per-layer only: "<e2e metric> on <workload>" *)
  about : string;
}

let e2e ?(higher = false) ?(exact = false) name unit bound about =
  { name; unit; higher_better = higher; exact; bound; moves = ""; about }

let end_to_end =
  [
    e2e "setup_s" "s" 0.25
      (Printf.sprintf
         "calibrated host seconds of set-up before the first timed run: \
          serve brings all 16 tenants up cold (kernels, seal, load, \
          translate, one request each); disaster warms one forked site per \
          family in a fresh domain, always the same 5 trials; median of the \
          set-up before the first repetition and 3 after each, times the \
          machine-speed probe's nominal %g s over its median time in the \
          run"
         Probe.nominal_s);
    e2e ~higher:true "ops_per_cal_s" "1/cal_s" 0.25
      (Printf.sprintf
         "requests served (serve) or trials checked (disaster) per \
          calibrated host second: the median over the run's repetitions of \
          ops per host second, times the machine-speed probe's median time \
          in the run over its nominal %g s"
         Probe.nominal_s);
    e2e ~exact:true "vlat_p50_us" "us_virtual" 0.05
      "median virtual latency of one operation: arrival to response \
       (serve), one trial's virtual run time (disaster); pooled over the \
       first 4 repetitions, 1000 trials on disaster";
    e2e ~exact:true "vlat_p99_us" "us_virtual" 0.05
      "99th percentile of the same virtual latencies";
    e2e ~exact:true "vlat_p999_us" "us_virtual" 0.05
      "99.9th percentile of the same virtual latencies";
    e2e ~higher:true ~exact:true "vthroughput_rps" "1/s_virtual" 0.05
      "operations per virtual second: served / makespan (serve), trials / \
       Campaign.total_vtime (disaster, where it is 1e6 / \
       vtime_per_trial_us)";
    e2e ~exact:true "vtime_per_trial_us" "us_virtual" 0.05
      "mean virtual time per operation: Campaign.total_vtime / count \
       (disaster), mean arrival-to-response latency (serve)";
    e2e "peak_heap_mb" "MiB" 0.2 "host major-heap peak over set-up and the first 3 repetitions";
  ]

let pl ?(higher = false) ?(exact = false) name unit moves about =
  { name; unit; higher_better = higher; exact; bound = 0.; moves; about }

let steady = "ops_per_cal_s on serve-steady"
let churn = "ops_per_cal_s on serve-churn"
let disaster = "ops_per_cal_s on disaster-forked"

let ladder =
  List.concat_map
    (fun g ->
      [
        pl ("vm.interp_ns." ^ g) "ns"
          (steady ^ " (not serve-churn)")
          "L0 control: Cpu.run of the sealed graft under a stub environment";
        pl ("vm.run_ns." ^ g) "ns"
          (steady ^ " (not serve-churn)")
          "L0: Jit.run of the same code";
        pl ("vm.delta_ns." ^ g) "ns" steady
          "vm.run minus vm.interp, paired per round";
        pl ("wrapper.exec_ns." ^ g) "ns" steady
          "L1: Wrapper.exec (env closure, kcall dispatch, slicing)";
        pl ("wrapper.delta_ns." ^ g) "ns" steady
          "wrapper.exec minus vm.run, paired per round";
        pl ("txn.exec_ns." ^ g) "ns" steady
          "L2: L1 plus Txn begin/commit, a lock acquire and an undo push";
        pl ("txn.delta_ns." ^ g) "ns" steady
          "txn.exec minus wrapper.exec, paired per round";
        pl ("point.invoke_ns." ^ g) "ns" steady
          "L3: one Graft_point.invoke in its own engine process";
        pl ("point.delta_ns." ^ g) "ns" steady
          "point.invoke minus txn.exec, paired per round";
        pl ("wrapper.minor_words." ^ g) "words" steady
          "minor-heap words per L1 call";
        pl ("txn.minor_words." ^ g) "words" steady
          "minor-heap words per L2 call";
        pl ~exact:true ("vm.vcycles." ^ g) "cycles"
          "vlat_* and vtime_per_trial_us on every workload"
          "virtual cycles of one invocation";
      ])
    Ladder.names

let load_path =
  List.concat_map
    (fun g ->
      [
        pl ("misfit.seal_us." ^ g) "us"
          (disaster ^ "; setup_s on serve (not serve-steady)")
          "Kernel.seal: MiSFIT rewrite and signing (plus the verifier)";
        pl ("jit.translate_us." ^ g) "us"
          (churn ^ " and disaster-forked (not serve-steady)")
          "Jit.translate, a translation-cache miss";
        pl ("linker.load_us." ^ g) "us"
          (churn ^ " and disaster-forked (not serve-steady)")
          "Linker.load on a translation-cache hit";
      ])
    Ladder.load_names

let sites =
  List.concat_map
    (fun (_, f) ->
      [
        pl ("kernel.snapshot_us." ^ f) "us" disaster
          "Kernel.snapshot of a never-run site";
        pl ("kernel.restore_us." ^ f) "us" disaster
          "Kernel.restore after one family operation";
        pl ("site.create_us." ^ f) "us" "setup_s on disaster-forked"
          "Site.create";
      ])
    Ladder.families

let counts =
  [
    pl "txn.abort_undo_ns" "ns" disaster
      "begin, 8 undo pushes and an abort that replays them";
    pl ~exact:true "sim.events_per_op" "events/op" steady
      "engine events executed per operation";
    pl ~exact:true "sim.procs_per_op" "procs/op" steady
      "engine processes spawned per operation";
    pl ~exact:true "txn.begins_per_op" "txns/op" steady
      "transactions begun per operation";
    pl ~exact:true "lock.contention_ratio" "ratio" steady
      "lock contentions / acquisitions";
    pl ~exact:true ~higher:true "txn.commit_ratio" "ratio" disaster
      "txn commits / begins";
    pl ~exact:true "undo.replays_per_op" "replays/op" disaster
      "undo records replayed per operation";
    pl ~exact:true "lock.timeouts_per_op" "timeouts/op" disaster
      "lock time-outs per operation";
    pl ~exact:true ~higher:true "jit.hit_ratio" "ratio" churn
      "translation-cache hits / lookups";
    pl ~exact:true "jit.misses_per_op" "misses/op" churn
      "translation-cache misses per operation";
    pl ~exact:true "graft.invocations_per_op" "invocations/op"
      "vlat_* and vtime_per_trial_us"
      "graft-point invocations per operation";
    pl ~exact:true "v.sandbox_cycles_per_op" "cycles/op"
      "vlat_* and vtime_per_trial_us"
      "MiSFIT sandbox cycles per operation";
    pl "gc.minor_words_per_op" "words/op"
      "ops_per_cal_s and peak_heap_mb on every workload"
      "minor-heap words allocated per operation (untraced repetitions)";
    pl "trace.overhead_frac" "ratio" "no untraced metric"
      "1 - traced / untraced ops_per_host_s, with a Trace sink installed";
    pl ~higher:true "ops_per_host_s" "1/s" "ops_per_cal_s on this workload"
      "uncalibrated ops per host second, median of the traced run's \
       untraced repetitions";
  ]

let per_layer = ladder @ load_path @ sites @ counts

let find name =
  List.find (fun m -> m.name = name) (end_to_end @ per_layer)

let json_of m ~layer =
  let fields =
    [
      Printf.sprintf "\"name\": %S" m.name;
      Printf.sprintf "\"unit\": %S" m.unit;
      Printf.sprintf "\"better\": %S"
        (if m.higher_better then "higher" else "lower");
      Printf.sprintf "\"exact\": %b" m.exact;
    ]
    @ (if layer then [ Printf.sprintf "\"moves\": %S" m.moves ]
       else [ Printf.sprintf "\"bound\": %g" m.bound ])
    @ [ Printf.sprintf "\"about\": %S" m.about ]
  in
  "{" ^ String.concat ", " fields ^ "}"

(* name, why, shape, loop kind *)
let workloads =
  let loop =
    "host: batches of a fixed input size, repeated for the run; virtual: \
     open loop, arrivals at fixed intervals, latency from each arrival's \
     due instant"
  in
  [
    ( "serve-steady",
      "16 tenants on 4 shards, translated handlers kept installed: every \
       request crosses event point, engine, wrapper, txn, lock and VM; \
       dispatch-bound; host fixed-size batches, virtual open loop",
      "Serve.run, 16 tenants x 2000 requests, 4 shards, translated, \
       reinstall_every 0, jit_cache_cap 64, interval 4000, in-flight cap 4",
      loop );
    ( "serve-churn",
      "16 tenants on 4 shards, proof-carrying handlers reinstalled every 6th \
       arrival with a 2-entry JIT cache: every reinstall misses, so \
       load+translate-bound; host fixed-size batches, virtual open loop",
      "Serve.run, 16 tenants x 320 requests, 4 shards, verified-translated, \
       reinstall_every 6, pause 24000, jit_cache_cap 2",
      loop );
    ( "disaster-forked",
      "250-trial forked fault-injection campaign, determinism re-run of \
       every trial, Txn_undo: abort, undo replay, lock time-outs, snapshot \
       restore, seal and load; host fixed-size batches",
      "Campaign.run, 250 trials, fork, recheck_every 1, Txn_undo; \
       repetition 0 uses the seed, later ones derived seeds",
      "host: batches of a fixed input size (one campaign), repeated for the \
       run; virtual: trials run one after another" );
  ]

let print () =
  let list ms ~layer =
    String.concat ",\n    " (List.map (json_of ~layer) ms)
  in
  let workload (name, why, shape, loop) =
    Printf.sprintf "{\"name\": %S, \"why\": %S, \"shape\": %S, \"loop\": %S}"
      name why shape loop
  in
  Printf.printf
    "{\n  \"workloads\": [\n    %s\n  ],\n  \"end_to_end\": [\n    %s\n  ],\n  \
     \"per_layer\": [\n    %s\n  ]\n}\n"
    (String.concat ",\n    " (List.map workload workloads))
    (list end_to_end ~layer:false)
    (list per_layer ~layer:true)
