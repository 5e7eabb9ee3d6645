(* The three end-to-end workloads, driven through the public entry points
   Vino_net.Serve.run and Vino_disaster.Campaign.run in one domain.

   serve-steady     16 tenants over 4 shards, translated handlers that stay
                    installed: every request crosses the whole dispatch
                    stack; only 16 translations in a run.
   serve-churn      16 tenants over 4 shards, proof-carrying handlers
                    reinstalled every 6th arrival with a 2-entry
                    translation cache: reinstalls miss the cache, so load
                    and translate dominate.
   disaster-forked  a forked fault-injection campaign with a determinism
                    re-run of every trial and Txn_undo recovery.

   Host side, each repetition is a batch at a fixed input size; virtual
   side, serve is an open loop with fixed arrival intervals whose latency
   runs from each arrival's due instant. *)

module Serve = Vino_net.Serve
module Campaign = Vino_disaster.Campaign
module Stats = Vino_sim.Stats

type vmetrics = {
  samples : int;
  p50 : float;
  p99 : float;
  p999 : float;
  mean : float;  (** vtime_per_trial_us: mean virtual time per op *)
  throughput : float;  (** ops per virtual second *)
}

(* The virtual side of one repetition: every op's virtual latency and the
   virtual time they took together. *)
type virt = {
  latencies_us : float list;
  span_us : float;  (** makespan (serve), Campaign.total_vtime (disaster) *)
}

type rep = {
  host_ns : int;  (** host time of the entry-point call alone *)
  minor_words : float;  (** minor-heap words the call allocated *)
  ops : int;  (** requests served or trials checked *)
  attempted : int;  (** arrivals or trials *)
  failed : int;
  errors : string list;  (** output-check failures; empty when correct *)
  virt : virt;
}

type t = {
  name : string;
  setup : unit -> unit;  (** one set-up repetition *)
  setup_in_domain : bool;
      (** repeat set-up in a fresh domain, whose domain-local caches start
          empty as a new process's do *)
  rep : int -> rep;  (** repetition [i] of the timed work *)
}

(* Virtual metrics pooled over repetitions. *)
let vmetrics virts =
  let st = Stats.create () in
  List.iter (fun v -> List.iter (Stats.add st) v.latencies_us) virts;
  let span_us = List.fold_left (fun a v -> a +. v.span_us) 0. virts in
  {
    samples = Stats.count st;
    p50 = Stats.percentile st 50.;
    p99 = Stats.percentile st 99.;
    p999 = Stats.percentile st 99.9;
    mean = Stats.mean st;
    throughput = float_of_int (Stats.count st) /. (span_us *. 1e-6);
  }

let span_tag = ref ""
let in_span name f = Spans.with_span ~tag:!span_tag name f

(* The call's result, host ns and minor words. *)
let timed_call name f =
  in_span name (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = Bstats.now_ns () in
      let r = f () in
      let ns = Bstats.now_ns () - t0 in
      (r, ns, Gc.minor_words () -. w0))

(* Serve: every repetition runs the same configuration, so every report
   must equal the first one. *)
let serve name cfg =
  let first = ref None in
  let check (r : Serve.report) =
    let arrivals = cfg.Serve.tenants * cfg.Serve.requests in
    List.filter_map Fun.id
      [
        (if r.served + r.rejected <> arrivals then
           Some
             (Printf.sprintf "served %d + rejected %d <> %d arrivals" r.served
                r.rejected arrivals)
         else None);
        (if r.admission_audited <> r.rejected then
           Some
             (Printf.sprintf "%d admission audits for %d rejections"
                r.admission_audited r.rejected)
         else None);
        (match !first with
        | Some r0 when r0 <> r ->
            Some "report differs from the first run of the same seed"
        | _ -> None);
      ]
  in
  let rep _ =
    let r, host_ns, minor_words =
      timed_call "serve.run" (fun () -> Serve.run cfg)
    in
    let errors = check r in
    if !first = None then first := Some r;
    {
      host_ns;
      minor_words;
      ops = r.served;
      attempted = cfg.tenants * cfg.requests;
      failed = r.rejected + r.handler_failures;
      errors;
      virt = { latencies_us = Serve.latencies r; span_us = r.drain_us };
    }
  in
  (* Set-up brings the server up cold: shard kernels built, every
     tenant's handler sealed, loaded and translated, one request each. *)
  let setup () =
    let r = in_span "serve.run" (fun () -> Serve.run { cfg with requests = 1 }) in
    if r.served + r.rejected <> cfg.tenants then failwith "set-up run lost arrivals"
  in
  { name; setup; setup_in_domain = false; rep }

let serve_steady ~seed =
  serve "serve-steady"
    {
      Serve.default with
      tenants = 16;
      shards = 4;
      requests = 2000;
      path = Serve.Translated;
      reinstall_every = 0;
      jit_cache_cap = 64;
      seed;
    }

let serve_churn ~seed =
  serve "serve-churn"
    {
      Serve.default with
      tenants = 16;
      shards = 4;
      requests = 320;
      path = Serve.Verified;
      seed;
    }

(* Disaster: repetition 0 runs the campaign of the given seed; later
   repetitions run campaigns of seeds derived from it, so every
   repetition mutates fresh grafts and misses the translation cache, as a
   new campaign does. *)
let disaster_count = 250
let setup_seed = 1_000_000_007
let families = List.length Vino_disaster.Site.all_families
let injectors = List.length Vino_disaster.Injector.all

let disaster ~seed =
  let campaign ~seed ~count =
    timed_call "campaign.run" (fun () ->
        Campaign.run ~fork:true ~check_determinism:true ~recheck_every:1
          ~strategy:Vino_core.Kernel.Txn_undo ~seed ~count ())
  in
  let rep i =
    let seed = if i = 0 then seed else seed + (i * 1_000_003) in
    let r, host_ns, minor_words = campaign ~seed ~count:disaster_count in
    let errors =
      List.filter_map Fun.id
        [
          (if Campaign.ok r then None
           else
             Some
               ("invariant violations: "
               ^ String.concat "; " (List.filteri (fun i _ -> i < 3) (Campaign.violations r))));
          (if Campaign.families_covered r = families then None
           else Some "not every family covered");
          (if Campaign.injectors_covered r = injectors then None
           else Some "not every injector covered");
        ]
    in
    let us c = Vino_vm.Costs.us_of_cycles c in
    {
      host_ns;
      minor_words;
      ops = disaster_count;
      attempted = disaster_count;
      failed =
        List.length
          (List.filter (fun (x : Campaign.record) -> x.violations <> []) r.records);
      errors;
      virt =
        {
          latencies_us =
            List.map (fun (x : Campaign.record) -> us x.vtime) r.records;
          span_us = us (Campaign.total_vtime r);
        };
    }
  in
  (* Set-up warms one forked site per family (Site.create + snapshot) in
     the calling domain, through a campaign of one trial per family. Its
     seed is fixed, so every run sets up the same grafts: the timed
     repetitions vary with the seed, set-up does not. *)
  let setup () =
    let r, _, _ = campaign ~seed:setup_seed ~count:families in
    if not (Campaign.ok r) then failwith "set-up campaign violated an invariant"
  in
  { name = "disaster-forked"; setup; setup_in_domain = true; rep }

let find name ~seed =
  match name with
  | "serve-steady" -> Some (serve_steady ~seed)
  | "serve-churn" -> Some (serve_churn ~seed)
  | "disaster-forked" -> Some (disaster ~seed)
  | _ -> None
