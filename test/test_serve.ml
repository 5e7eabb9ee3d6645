(* Multi-tenant graft server (lib/net/serve.ml): determinism across the
   domain pool, admission control + audit, runaway containment under
   inherited limits, execution-path parity and translation-cache churn. *)

module Serve = Vino_net.Serve
module Pool = Vino_par.Pool

(* Small enough to keep tier-1 fast, big enough that every shard holds
   at least two tenants and every tenant sees a reinstall burst. *)
let small =
  { Serve.default with Serve.tenants = 4; requests = 8; shards = 2 }

(* Decode [Serve.to_json]'s text back into a report. Building the record
   makes the compiler demand every field, so [check_json] compares the
   config echo, counters, every tenant row and every sample, with floats
   exact. *)
let report_of_json j =
  let module J = Vino_trace.Json in
  let get path =
    List.fold_left
      (fun v name ->
        match J.member name v with
        | Some v -> v
        | None -> Alcotest.failf "missing %s" (String.concat "." path))
      j path
  in
  let int_of v = Option.get (J.int_value v) in
  let float_of = function
    | J.Float f -> f
    | _ -> Alcotest.fail "expected a float"
  in
  let int path = int_of (get path) in
  let float path = float_of (get path) in
  let config name = int [ "config"; name ] in
  {
    Serve.config =
      {
        Serve.tenants = config "tenants";
        requests = config "requests";
        interval = config "interval";
        pause = config "pause";
        max_inflight = config "max_inflight";
        jit_cache_cap = config "jit_cache_cap";
        reinstall_every = config "reinstall_every";
        shards = config "shards";
        path =
          Option.get
            (Serve.path_of_name
               (Option.get (J.string_value (get [ "config"; "path" ]))));
        seed = config "seed";
        runaway =
          (match get [ "config"; "runaway" ] with
          | J.Null -> None
          | v -> Some (int_of v));
        net_quota = config "net_quota";
      };
    samples =
      List.map
        (function
          | J.List [ t; req; lat ] -> (int_of t, int_of req, float_of lat)
          | _ -> Alcotest.fail "sample is not [tenant, request, latency]")
        (J.to_list (get [ "samples" ]));
    per_tenant =
      List.map
        (fun row ->
          let field name = Option.get (J.member name row) in
          ( int_of (field "tenant"),
            Option.get (J.string_value (field "family")),
            int_of (field "served"),
            int_of (field "rejected") ))
        (J.to_list (get [ "per_tenant" ]));
    served = int [ "served" ];
    rejected = int [ "rejected" ];
    admission_audited = int [ "admission_audited" ];
    handler_failures = int [ "handler_failures" ];
    transmitted = int [ "transmitted" ];
    quota_denials = int [ "quota_denials" ];
    jit_hits = int [ "jit"; "hits" ];
    jit_misses = int [ "jit"; "misses" ];
    jit_evictions = int [ "jit"; "evictions" ];
    drain_us = float [ "drain_us" ];
    throughput_rps = float [ "throughput_rps" ];
  }

(* [Serve.to_json] re-parses to exactly the report, keys in the CLI's
   order, and carries {!Serve.latency_percentiles} as [latency_us]. *)
let check_json r =
  let module J = Vino_trace.Json in
  let j =
    match J.of_string (J.to_string (Serve.to_json r)) with
    | Ok j -> j
    | Error e -> Alcotest.failf "serve JSON does not parse: %s" e
  in
  Alcotest.(check (list string))
    "top-level keys in order"
    [ "config"; "served"; "rejected"; "admission_audited"; "handler_failures";
      "transmitted"; "quota_denials"; "jit"; "drain_us"; "throughput_rps";
      "latency_us"; "per_tenant"; "samples" ]
    (match j with J.Obj fields -> List.map fst fields | _ -> []);
  Alcotest.(check bool) "decodes to the report" true (report_of_json j = r);
  let p50, p99, p999 = Serve.latency_percentiles r in
  Alcotest.(check (list (float 0.)))
    "latency_us" [ p50; p99; p999 ]
    (List.map
       (fun k ->
         match Option.bind (J.member "latency_us" j) (J.member k) with
         | Some (J.Float f) -> f
         | _ -> Alcotest.failf "latency_us.%s is not a float" k)
       [ "p50"; "p99"; "p999" ])

(* The report is a pure function of the config: running the shards
   serially and over a 3-domain pool must produce equal reports, and
   repeating a run must reproduce it bit-for-bit. *)
let test_determinism () =
  let serial = Serve.run small in
  let pool = Pool.create ~domains:3 () in
  let pooled =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Serve.run ~pool small)
  in
  Alcotest.(check bool) "pooled report equals serial" true (serial = pooled);
  Alcotest.(check bool)
    "repeat run reproduces" true
    (Serve.run small = serial);
  Alcotest.(check int) "every arrival served" (small.Serve.tenants * 8)
    serial.Serve.served;
  Alcotest.(check bool) "makespan positive" true (serial.Serve.drain_us > 0.);
  Alcotest.(check bool) "throughput positive" true
    (serial.Serve.throughput_rps > 0.);
  check_json serial;
  Alcotest.(check string) "pooled JSON equals serial"
    (Vino_trace.Json.to_string (Serve.to_json serial))
    (Vino_trace.Json.to_string (Serve.to_json pooled))

(* Samples come back sorted by (tenant, request) with no duplicates, so
   JSON dumps diff cleanly. *)
let test_samples_sorted () =
  let r = Serve.run small in
  let keys = List.map (fun (t, req, _) -> (t, req)) r.Serve.samples in
  Alcotest.(check bool) "sorted by tenant then request" true
    (List.sort compare keys = keys);
  Alcotest.(check int) "no duplicate (tenant, request)"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

(* A tight in-flight cap under a fast arrival rate sheds load, and every
   shed arrival lands an [Admission_rejected] entry in its shard's audit
   trail — the counts must agree exactly. *)
let test_admission_control () =
  let r =
    Serve.run { small with Serve.max_inflight = 1; interval = 1_000 }
  in
  Alcotest.(check bool) "cap sheds load" true (r.Serve.rejected > 0);
  Alcotest.(check int) "every rejection audited" r.Serve.rejected
    r.Serve.admission_audited;
  Alcotest.(check int) "served + rejected accounts for every arrival"
    (small.Serve.tenants * small.Serve.requests)
    (r.Serve.served + r.Serve.rejected);
  Alcotest.(check int) "no handler failures" 0 r.Serve.handler_failures;
  check_json r;
  (* a zero cap sheds every arrival: no samples, zero percentiles *)
  let none = Serve.run { small with Serve.max_inflight = 0 } in
  Alcotest.(check int) "zero cap serves nothing" 0 none.Serve.served;
  Alcotest.(check int) "zero cap rejects every arrival"
    (small.Serve.tenants * small.Serve.requests)
    none.Serve.rejected;
  Alcotest.(check (list (float 0.))) "zero percentiles" [ 0.; 0.; 0. ]
    (let p50, p99, p999 = Serve.latency_percentiles none in
     [ p50; p99; p999 ]);
  check_json none

(* A runaway tenant flooding [net.send] is capped by its own inherited
   [Net_packets] slice: it transmits at most its quota, the rest are
   quota denials, and every other tenant's latency samples — including
   its same-shard neighbours' — are bit-identical to the run without the
   runaway. *)
let test_runaway_contained () =
  let base = Serve.run small in
  let r = Serve.run { small with Serve.runaway = Some 0 } in
  Alcotest.(check bool) "flood transmits something" true
    (r.Serve.transmitted > 0);
  Alcotest.(check bool) "slice caps the flood" true
    (r.Serve.transmitted <= small.Serve.net_quota);
  Alcotest.(check bool) "overflow denied, not transmitted" true
    (r.Serve.quota_denials > 0);
  Alcotest.(check int) "no handler failures" 0 r.Serve.handler_failures;
  List.iter
    (fun t ->
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "tenant %d unperturbed" t)
        (Serve.latencies ~tenant:t base)
        (Serve.latencies ~tenant:t r))
    [ 1; 2; 3 ];
  Alcotest.(check bool) "the runaway's own samples do change" true
    (Serve.latencies ~tenant:0 base <> Serve.latencies ~tenant:0 r);
  check_json r

(* Translation is a host-time optimisation: interpreted and translated
   runs are cycle-identical (the jit-differential invariant), while the
   verified path elides proven safety checks and is strictly faster. *)
let test_path_parity () =
  let ri = Serve.run { small with Serve.path = Serve.Interp } in
  let rt = Serve.run { small with Serve.path = Serve.Translated } in
  let rv = Serve.run { small with Serve.path = Serve.Verified } in
  Alcotest.(check bool) "interp and translated samples bit-identical" true
    (ri.Serve.samples = rt.Serve.samples);
  let sum r =
    List.fold_left (fun acc l -> acc +. l) 0. (Serve.latencies r)
  in
  Alcotest.(check bool) "verified strictly faster in aggregate" true
    (sum rv < sum rt)

(* Tenant churn (periodic reinstalls) drives the per-kernel translation
   cache: with enough capacity the reinstalled graft's code is a hit;
   with more tenants than capacity the shard thrashes and evicts. *)
let test_cache_churn () =
  let r = Serve.run small in
  Alcotest.(check bool)
    "reinstalls hit the cache" true
    (r.Serve.jit_hits > 0);
  Alcotest.(check int) "one miss per tenant" small.Serve.tenants
    r.Serve.jit_misses;
  Alcotest.(check int) "no evictions within capacity" 0 r.Serve.jit_evictions;
  let thrash = Serve.run { small with Serve.tenants = 6 } in
  Alcotest.(check bool) "over-capacity shard evicts" true
    (thrash.Serve.jit_evictions > 0);
  Alcotest.(check bool) "eviction forces re-translation" true
    (thrash.Serve.jit_misses > 6);
  let no_churn = Serve.run { small with Serve.reinstall_every = 0 } in
  Alcotest.(check int) "no churn, no cache hits" 0 no_churn.Serve.jit_hits

(* [Serve.check] names what is wrong (the CLI prints it and exits 2);
   [Serve.run] raises on the same configs. *)
let test_config_validation () =
  let runaway i = { small with Serve.runaway = Some i } in
  Alcotest.(check (result unit string)) "valid config" (Ok ())
    (Serve.check small);
  (* zero stays a valid cap, period, quota or spacing; only negatives
     are rejected *)
  Alcotest.(check (result unit string)) "zero caps, periods and quota"
    (Ok ())
    (Serve.check
       {
         small with
         Serve.max_inflight = 0;
         reinstall_every = 0;
         net_quota = 0;
         interval = 0;
         pause = 0;
       });
  List.iter
    (fun (cfg, msg) ->
      Alcotest.(check (result unit string)) msg (Error msg) (Serve.check cfg);
      match Serve.run cfg with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "invalid config accepted")
    [
      ({ small with Serve.tenants = 0 }, "tenants must be positive");
      ({ small with Serve.requests = 0 }, "requests must be positive");
      ({ small with Serve.shards = 0 }, "shards must be positive");
      ({ small with Serve.interval = -1 }, "interval must be non-negative");
      ({ small with Serve.pause = -1 }, "pause must be non-negative");
      ( { small with Serve.max_inflight = -1 },
        "inflight cap must be non-negative" );
      ( { small with Serve.jit_cache_cap = 0 },
        "cache capacity must be positive" );
      ( { small with Serve.reinstall_every = -1 },
        "reinstall period must be non-negative" );
      ({ small with Serve.net_quota = -1 }, "net quota must be non-negative");
      (runaway 4, "runaway tenant out of range");
      (runaway (-1), "runaway tenant out of range");
    ]

(* The full serve report, byte for byte, against committed
   [vino serve --json] output: host-side bookkeeping (how arrivals are
   queued, transaction frames recycled, kernel memory reused) must not
   move a single virtual cycle, sample or key. The files are read from
   the test binary's directory, where the test stanza's deps put them,
   so the check passes from any working directory. *)
let check_golden file cfg () =
  let path = Filename.concat (Filename.dirname Sys.executable_name) file in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) file expected
    (Vino_trace.Json.to_string (Serve.to_json (Serve.run cfg)))

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "deterministic across the domain pool" `Quick
          test_determinism;
        Alcotest.test_case "samples sorted and unique" `Quick
          test_samples_sorted;
        Alcotest.test_case "admission control audited exactly" `Quick
          test_admission_control;
        Alcotest.test_case "runaway tenant contained by its slice" `Quick
          test_runaway_contained;
        Alcotest.test_case "interp/translated parity, verified faster" `Quick
          test_path_parity;
        Alcotest.test_case "churn drives the translation cache" `Quick
          test_cache_churn;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "golden report: default" `Quick
          (check_golden "serve_default.golden.json" Serve.default);
        Alcotest.test_case "golden report: --inflight 1 --interval 1000" `Quick
          (check_golden "serve_inflight1_interval1000.golden.json"
             { Serve.default with Serve.max_inflight = 1; interval = 1000 });
      ] );
  ]
