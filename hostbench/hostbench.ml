(* Host-time benchmark of the VINO simulator.

   Usage, from the root of a checkout:
     dune exec --root . -- ./hostbench/hostbench.exe \
       --workload serve-steady|serve-churn|disaster-forked \
       [--seed N] [--seconds S] [--trace 0|1]
     dune exec --root . -- ./hostbench/hostbench.exe --catalogue

   --trace 0 (default) measures the end-to-end metrics: the workload is
   set up, then repeats at a fixed input size for S seconds (at least 4
   times), and every repetition's output is checked; after each
   repetition the set-up is timed again 3 times and its median reported.
   Host throughput is reported calibrated (ops_per_cal_s), and so is
   set-up time (setup_s): a machine-speed probe runs in a child process
   after every repetition, and the ratio of its median time over the run
   to its nominal time cancels the drift of the shared host (see
   probe.ml); the raw figures are printed beside them.

   --trace 1 measures the per-layer metrics instead: the workload again,
   in quads of runs with and without a Vino_trace sink installed (counts
   come from the sink of repetition 0), then the layer ladder, the load
   path, snapshot/restore/site creation and an abort with undo replay,
   each timed round-robin. Benchmark-side spans of a traced run go to
   _hostbench/spans-<workload>-<seed>.jsonl.

   A human-readable report goes first; the last line of standard output
   is one JSON object {correct, attempted, failed, metrics}. The exit code
   is 0 only when every output check passed. Virtual-time metrics and
   counts are exact: the same seed gives the same values on any machine.
   Only host times and heap sizes are noisy. *)

let usage () =
  prerr_endline
    "usage: hostbench.exe --workload serve-steady|serve-churn|disaster-forked \
     [--seed N] [--seconds S] [--trace 0|1] | --catalogue";
  exit 2

type args = { workload : string; seed : int; seconds : float; trace : bool }

let parse argv =
  let rec go a = function
    | [] -> a
    | "--catalogue" :: _ ->
        Catalogue.print ();
        exit 0
    | "--probe" :: _ ->
        Probe.child ();
        exit 0
    | "--workload" :: w :: rest -> go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of_string s } rest
    | "--seconds" :: s :: rest -> go { a with seconds = float_of_string s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | _ -> usage ()
  in
  match
    go { workload = ""; seed = 42; seconds = 10.; trace = false }
      (List.tl (Array.to_list argv))
  with
  | a when a.seconds > 0. -> a
  | _ -> usage ()
  | exception Failure _ -> usage ()

(* The result line. Values keep all their digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  let m =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v)
          (Catalogue.find name).Catalogue.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m)

let pp_q ppf samples =
  let q1, m, q3 = Bstats.quartiles samples in
  Format.fprintf ppf "median %.6g (q1 %.6g, q3 %.6g, IQR/median %.1f%%)" m q1
    q3
    (100. *. Bstats.spread samples)

let ops_per_s (r : Workload.rep) =
  float_of_int r.ops /. (float_of_int r.host_ns *. 1e-9)

(* ---- set-up ---- *)

let time_setup (w : Workload.t) =
  let t0 = Bstats.now_ns () in
  w.setup ();
  let s = Bstats.seconds_since t0 in
  Gc.full_major ();
  s

(* One more set-up, timed apart from the run's state: for a workload with
   domain-local caches it runs in a fresh domain, whose caches start empty
   as a new process's do. *)
let fresh_setup (w : Workload.t) =
  if w.setup_in_domain then Domain.join (Domain.spawn (fun () -> time_setup w))
  else time_setup w

(* Set-ups timed after every repetition. The set-up that precedes the first
   repetition counts too; spread over the run, the samples see the same
   phases of the shared machine as the repetitions and the probes. *)
let setups_per_rep = 3

(* How much slower than nominal the machine ran: the median of all the
   probes of a run, one before the first repetition and one after each. Host
   times are divided by it and rates multiplied. A median over the whole
   run keeps the probe's own short-term noise out; only the drift that
   outlasts a run is cancelled. *)
let slowdown probes = Bstats.median probes /. Probe.nominal_s

(* ---- repetitions ---- *)

type tally = {
  mutable reps : Workload.rep list;  (** newest first *)
  mutable virts : Workload.virt list;
      (** the virtual side of the first [min_reps] repetitions *)
  mutable errors : string list;
}

(* The virtual metrics come from a fixed number of repetitions, whatever
   the run's length; the latencies of later ones are dropped, so the heap
   does not grow with the run. *)
let min_reps = 4

let run_rep t (w : Workload.t) i =
  (* start every repetition from a collected heap, so no repetition pays
     for the garbage of the one before *)
  Gc.full_major ();
  let r = w.rep i in
  if List.length t.virts < min_reps then t.virts <- r.virt :: t.virts;
  t.reps <- { r with virt = { latencies_us = []; span_us = 0. } } :: t.reps;
  List.iter
    (fun e -> t.errors <- Printf.sprintf "work %d: %s" i e :: t.errors)
    r.errors;
  r

let totals t =
  List.fold_left
    (fun (a, f) (r : Workload.rep) -> (a + r.attempted, f + r.failed))
    (0, 0) t.reps

let report_errors t =
  List.iter (fun e -> Printf.eprintf "hostbench: output check failed: %s\n" e)
    (List.rev t.errors)

let print_virtual (v : Workload.vmetrics) =
  Printf.printf
    "  virtual latency over %d samples: p50 %.6f us, p99 %.6f us, p999 %.6f \
     us, mean %.6f us\n\
    \  virtual throughput %.6f ops/s\n"
    v.samples v.p50 v.p99 v.p999 v.mean v.throughput

(* ---- --trace 0: end-to-end ---- *)

let end_to_end (a : args) (w : Workload.t) =
  let probes = ref [ Probe.run () ] in
  let setups = ref [ time_setup w ] in
  let t = { reps = []; virts = []; errors = [] } in
  let t0 = Bstats.now_ns () in
  let i = ref 0 and heap_words = ref 0 in
  while !i < min_reps || Bstats.seconds_since t0 < a.seconds do
    ignore (run_rep t w !i : Workload.rep);
    probes := Probe.run () :: !probes;
    for _ = 1 to setups_per_rep do
      setups := fresh_setup w :: !setups
    done;
    incr i;
    (* the heap peak of a fixed amount of work, whatever the run's length *)
    if !i = min_reps then heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  let elapsed = Bstats.seconds_since t0 in
  let reps = List.rev t.reps in
  let first = List.hd reps in
  let rates = List.map ops_per_s reps in
  let slowdown = slowdown !probes in
  let setup = !setups in
  let setup_cal = Bstats.median setup /. slowdown in
  let calibrated = Bstats.median rates *. slowdown in
  let attempted, failed = totals t in
  let heap_mb = float_of_int (!heap_words * (Sys.word_size / 8)) /. 1048576. in
  let pp_list ppf l =
    Format.pp_print_list ~pp_sep:(fun _ () -> ()) (fun ppf r ->
        Format.fprintf ppf " %.4g" r) ppf l
  in
  Format.printf "== hostbench %s seed=%d: end to end ==@." w.name a.seed;
  Format.printf "  set-up (%d runs): %a s@.  set-up calibrated: %.6g s@."
    (List.length setup) pp_q setup setup_cal;
  Format.printf "  %d repetitions in %.2f s, %d ops each@." (List.length reps)
    elapsed first.ops;
  Format.printf "  ops_per_host_s: %a@.  per repetition:%a@." pp_q rates
    pp_list rates;
  Format.printf "  probe (nominal %g s, %d runs): %a s@." Probe.nominal_s
    (List.length !probes) pp_q !probes;
  Format.printf "  ops_per_cal_s: %.6g@." calibrated;
  let v = Workload.vmetrics t.virts in
  print_virtual v;
  Printf.printf "  failed_frac %.6f (%d of %d attempted)\n  peak heap %.1f MiB\n"
    (Bstats.ratio failed attempted) failed attempted heap_mb;
  report_errors t;
  result_line ~correct:(t.errors = []) ~attempted ~failed
    [
      ("setup_s", setup_cal);
      ("ops_per_cal_s", calibrated);
      ("vlat_p50_us", v.p50);
      ("vlat_p99_us", v.p99);
      ("vlat_p999_us", v.p999);
      ("vthroughput_rps", v.throughput);
      ("vtime_per_trial_us", v.mean);
      ("peak_heap_mb", heap_mb);
    ];
  t.errors = []

(* ---- --trace 1: per layer ---- *)

let count_metrics sink (r : Workload.rep) =
  let c = Vino_trace.Trace.counter_value sink in
  let per_op name = Bstats.ratio (c name) r.ops in
  [
    ("sim.events_per_op", per_op "sim.events_executed");
    ("sim.procs_per_op", per_op "sim.procs_spawned");
    ("txn.begins_per_op", per_op "txn.begins");
    ( "lock.contention_ratio",
      Bstats.ratio (c "lock.contentions") (c "lock.acquisitions") );
    ("txn.commit_ratio", Bstats.ratio (c "txn.commits") (c "txn.begins"));
    ("undo.replays_per_op", per_op "undo.replays");
    ("lock.timeouts_per_op", per_op "lock.timeouts");
    ( "jit.hit_ratio",
      Bstats.ratio (c "jit.hits") (c "jit.hits" + c "jit.misses") );
    ("jit.misses_per_op", per_op "jit.misses");
    ("graft.invocations_per_op", per_op "graft.invocations");
    ("v.sandbox_cycles_per_op", per_op "sfi.sandbox_cycles");
  ]

let print_variant (v : Rr.variant) ~scale ~unit =
  let q1, m, q3 = Rr.quartiles v in
  Printf.printf "  %-34s %12.3f %s  (q1 %.3f, q3 %.3f, %d rounds)\n" v.name
    (m /. scale) unit (q1 /. scale) (q3 /. scale)
    (List.length v.samples)

let per_layer (a : args) (w : Workload.t) =
  let tag = Printf.sprintf "%s/seed%d" w.name a.seed in
  let budget share = int_of_float (a.seconds *. share *. 1e9) in
  let in_span name f = Spans.with_span ~tag name f in
  Workload.span_tag := tag ^ "/setup";
  in_span "setup" w.setup;
  (* Workload under a trace sink and without, in quads: work 2q traced
     then untraced, work 2q+1 untraced then traced. A second run of one
     work may find its grafts already translated, so each quad puts the
     traced run first once and second once, and the quad's overhead is
     the geometric mean of its two pairs' rate ratios. Repetition 0 is
     traced and gives the counts; quad 0 warms up and is left out of the
     overhead when there are more. *)
  let t = { reps = []; virts = []; errors = [] } in
  let quads = ref [] in
  let sink0 = Vino_trace.Trace.create () in
  let t0 = Bstats.now_ns () in
  let n = ref 0 in
  let run_one n ~traced =
    Workload.span_tag := Printf.sprintf "%s/rep%d" tag n;
    let work = (2 * (n / 4)) + (n mod 4 / 2) in
    let sink = if n = 0 then sink0 else Vino_trace.Trace.create () in
    in_span "workload.rep" (fun () ->
        if traced then Vino_trace.Trace.with_t sink (fun () -> run_rep t w work)
        else run_rep t w work)
  in
  while !n < 8 || Bstats.now_ns () - t0 < budget 0.35 do
    let r = Array.init 4 (fun k -> run_one (!n + k) ~traced:(k = 0 || k = 3)) in
    let rate k = ops_per_s r.(k) in
    quads := sqrt (rate 0 /. rate 1 *. (rate 3 /. rate 2)) :: !quads;
    n := !n + 4
  done;
  let rep0 = List.hd (List.rev t.reps) in
  let quads = match List.rev !quads with _ :: (_ :: _ as l) -> l | l -> l in
  let overhead = 1. -. Bstats.median quads in
  let untraced =
    List.filteri (fun i _ -> i mod 4 = 1 || i mod 4 = 2) (List.rev t.reps)
  in
  let words =
    Bstats.median
      (List.map
         (fun (r : Workload.rep) -> r.minor_words /. float_of_int r.ops)
         untraced)
  in
  let counts = count_metrics sink0 rep0 in
  (* The layers, each on its own share of the time. *)
  let ladder = in_span "ladder" (fun () -> Ladder.ladder ~tag ~budget_ns:(budget 0.35)) in
  let load = in_span "load-path" (fun () -> Ladder.load_path ~tag ~budget_ns:(budget 0.15)) in
  let sites =
    in_span "sites" (fun () -> Ladder.sites_and_undo ~tag ~budget_ns:(budget 0.15))
  in
  Printf.printf "== hostbench %s seed=%d: per layer ==\n" w.name a.seed;
  Printf.printf "-- ladder (ns per invocation; delta over the rung below)\n";
  let metrics = ref [] in
  let add name v = metrics := (name, v) :: !metrics in
  List.iter
    (fun (l : Ladder.ladder_row) ->
      Printf.printf " %s: %d virtual cycles, minor words L1 %.2f L2 %.2f\n"
        l.graft l.vcycles l.wrapper_words l.txn_words;
      List.iter
        (fun (rung, (v : Rr.variant)) ->
          let q1, m, q3 = Rr.quartiles v in
          Printf.printf "   %-10s %12.1f ns  (q1 %.1f, q3 %.1f, %d rounds)\n"
            rung m q1 q3 (List.length v.samples);
          add v.name m)
        l.rows;
      List.iter
        (fun (name, d) ->
          Printf.printf "   %-28s %+12.1f ns\n" name d;
          add name d)
        l.deltas;
      add ("wrapper.minor_words." ^ l.graft) l.wrapper_words;
      add ("txn.minor_words." ^ l.graft) l.txn_words;
      add ("vm.vcycles." ^ l.graft) (float_of_int l.vcycles))
    ladder;
  Printf.printf "-- load path, snapshots, sites (us per call)\n";
  List.iter
    (fun (v : Rr.variant) ->
      if v.name = "txn.abort_undo_ns" then begin
        print_variant v ~scale:1. ~unit:"ns";
        add v.name (Rr.median v)
      end
      else begin
        print_variant v ~scale:1e3 ~unit:"us";
        add v.name (Rr.median v /. 1e3)
      end)
    (load @ sites);
  Printf.printf "-- counts per op (repetition 0, traced)\n";
  List.iter
    (fun (name, v) ->
      Printf.printf "  %-34s %.6f\n" name v;
      add name v)
    counts;
  Printf.printf "  %-34s %.1f\n  %-34s %.4f (median of %d quads)\n"
    "gc.minor_words_per_op" words "trace.overhead_frac" overhead
    (List.length quads);
  add "gc.minor_words_per_op" words;
  add "trace.overhead_frac" overhead;
  add "ops_per_host_s" (Bstats.median (List.map ops_per_s untraced));
  Printf.printf "-- self time by layer (benchmark spans)\n";
  List.iter
    (fun (name, n, total, self) ->
      Printf.printf "  %-18s %6d spans %10.3f s total %10.3f s self\n" name n
        (float_of_int total *. 1e-9)
        (float_of_int self *. 1e-9))
    (Spans.self_times ());
  let file =
    Printf.sprintf "_hostbench/spans-%s-%d.jsonl" w.name a.seed
  in
  Spans.write file;
  Printf.printf "  spans written to %s\n" file;
  report_errors t;
  let attempted, failed = totals t in
  let metrics = List.rev !metrics in
  (* print in catalogue order *)
  result_line ~correct:(t.errors = []) ~attempted ~failed
    (List.map
       (fun (m : Catalogue.metric) -> (m.name, List.assoc m.name metrics))
       Catalogue.per_layer);
  t.errors = []

let () =
  let a = parse Sys.argv in
  match Workload.find a.workload ~seed:a.seed with
  | None -> usage ()
  | Some w ->
      Spans.enabled := a.trace;
      at_exit Probe.stop;
      let ok =
        try if a.trace then per_layer a w else end_to_end a w
        with e ->
          Printf.eprintf "hostbench: %s\n" (Printexc.to_string e);
          exit 1
      in
      exit (if ok then 0 else 1)
