(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) from the simulator.

   Usage:
     bench/main.exe                 -- everything (default iterations)
     bench/main.exe quick           -- everything, fewer iterations
     bench/main.exe tables          -- the gated tables
     bench/main.exe -j 4 tables     -- fan table rows out over 4 domains
     bench/main.exe --json quick    -- the gated tables, each also written
                                       as BENCH_<name>.json
     bench/main.exe NAME            -- one table of Vino_measure.Tables:
                                       table3..table7, disaster, serve,
                                       abortmodel, lockfactor, calibrate
     bench/main.exe disaster        -- also appends wall-clock campaign rows
     bench/main.exe fig3            -- Figure 3: the measured code paths
     bench/main.exe costbenefit     -- §4.1/§4.2/§4.3 cost-benefit analyses
     bench/main.exe ablations       -- design-choice ablations (DESIGN.md)
     bench/main.exe speedup         -- time tables at -j 1 vs -j N *)

open Vino_measure

(* --json: a gated table is also written as BENCH_<name>.json (see
   Tables.emit). *)
let json_mode = ref false

let emit ~iterations ?pool e =
  Tables.emit ~json:!json_mode ~iterations ?pool e

(* The standalone `disaster` dispatch appends wall-clock rows comparing
   forked (snapshot-restored warmed sites) and fresh (site rebuilt per
   trial) campaigns. The rows are host timings, so they are incremental
   (ungated) and must not appear in the `tables` run the
   parallel-determinism CI job byte-diffs. *)
let with_wall_rows (e : Tables.entry) =
  let wall_rows ?pool () =
    let time f =
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0
    in
    let count = 400 in
    let campaign ~fork ?pool () =
      Vino_disaster.Campaign.run ?pool ~fork ~seed:42 ~count ()
    in
    let fresh = time (fun () -> campaign ~fork:false ()) in
    let forked = time (fun () -> campaign ~fork:true ()) in
    let piped = time (fun () -> campaign ~fork:true ?pool ()) in
    [
      Table.overhead
        (Printf.sprintf "wall: fresh campaign, %d trials" count)
        (fresh *. 1e6);
      Table.overhead
        (Printf.sprintf "wall: forked campaign, %d trials" count)
        (forked *. 1e6);
      Table.overhead "wall: forked speedup over fresh (x)" (fresh /. forked);
      Table.overhead "wall: forked -jN pipeline speedup over fresh -j1 (x)"
        (fresh /. piped);
    ]
  in
  {
    e with
    Tables.rows =
      (fun ?iterations ?pool () ->
        e.Tables.rows ?iterations ?pool () @ wall_rows ?pool ());
  }

let fig3 () =
  print_endline
    {|Figure 3: the measured code paths (general graft structure)

        application request
               |
        [ indirection ]        <- removed on the Base path
               v
     +------------------------+
     |  graft point wrapper   |
     |  txn_begin ----------- |  <- Null path starts charging here
     |     |                  |
     |     v                  |
     |  [ graft function ]    |  <- Unsafe: raw code   Safe: MiSFIT-rewritten
     |     |   \- kcalls -> kernel accessors (undo logged, locks 2PL)
     |     v                  |
     |  results checking      |
     |     |                  |
     |  txn_commit / ABORT -- |  <- Abort path: undo replay + lock release
     +------------------------+
               |
               v
        default code on failure  (graft forcibly removed)
|};
  print_newline ()

(* -------------------------------------------------------------------- *)
(* Cost-benefit analyses (§4.1.1, §4.2.2, §4.3)                          *)
(* -------------------------------------------------------------------- *)

let costbenefit ~iterations () =
  let safe_ra = Sc_readahead.measure ~iterations Path.Safe in
  Printf.printf
    "== Cost-benefit (from the measured simulator paths) ==\n\
     Read-ahead graft (safe path): %.1f us per read. The application wins\n\
     whenever it computes more than that between reads (paper: 107 us; for\n\
     scale, summing a 4 KB block of integers costs ~137 us on the 120 MHz\n\
     target).\n"
    safe_ra;
  let overrule = Sc_evict.measure ~iterations Path.Safe in
  let base = Sc_evict.measure ~iterations Path.Base in
  let fault_us = 16_000. in
  Printf.printf
    "Page-eviction graft: overruling costs %.1f us over the %.1f us default;\n\
     avoiding one %.0f us page fault pays for ~%.0f disagreements (paper: \
     ~57).\n"
    (overrule -. base) base fault_us
    (fault_us /. (overrule -. base));
  let sched_safe = Sc_sched.measure ~iterations Path.Safe in
  Printf.printf
    "Scheduling graft: %.1f us per decision = %.1f%% of a 10 ms timeslice\n\
     (paper: ~2%%).\n\n"
    sched_safe
    (100. *. sched_safe /. 10_000.)

(* -------------------------------------------------------------------- *)
(* Ablations of DESIGN.md's design choices                               *)
(* -------------------------------------------------------------------- *)

let ablation_sfi ~iterations () =
  Printf.printf "== Ablation D1: SFI sandbox cost on the worst-case graft ==\n";
  let null = Sc_crypt.measure ~iterations Path.Null in
  let unsafe = Sc_crypt.measure ~iterations Path.Unsafe in
  let safe = Sc_crypt.measure ~iterations Path.Safe in
  Printf.printf
    "xor-8KB: unsafe %.1f us, safe %.1f us -> SFI adds %.0f%% to the graft\n\
     function (paper: 100-200%% for data-intensive grafts).\n\n"
    unsafe safe
    (100. *. (safe -. unsafe) /. (unsafe -. null))

let ablation_undo ~iterations () =
  Printf.printf "== Ablation D3: undo-stack depth vs abort cost ==\n";
  List.iter
    (fun undo ->
      Printf.printf "  %3d undo records: abort %.1f us\n" undo
        (Abort_model.abort_cost ~iterations ~locks:0 ~undo ()))
    [ 0; 4; 16; 64 ];
  print_newline ()

let ablation_timeout () =
  Printf.printf "== Ablation D4: timeout-tick resolution vs abort latency ==\n";
  List.iter
    (fun (label, tick) ->
      let e = Vino_sim.Engine.create () in
      let wheel = Vino_sim.Tick.create e ~tick () in
      let lat = ref 0 in
      ignore
        (Vino_sim.Engine.spawn e (fun () ->
             Vino_sim.Engine.delay 777;
             lat := Vino_sim.Tick.latency wheel ~after:tick));
      Vino_sim.Engine.run e;
      Printf.printf "  tick %-8s nominal-timeout latency: %8.2f ms\n" label
        (Vino_vm.Costs.us_of_cycles !lat /. 1000.))
    [
      ("10 ms", Vino_sim.Tick.default_tick);
      ("1 ms", Vino_sim.Tick.default_tick / 10);
      ("100 us", Vino_sim.Tick.default_tick / 100);
    ];
  print_newline ()

let ablation_elevator () =
  Printf.printf "== Ablation: disk scheduling (FIFO vs elevator) ==\n";
  List.iter
    (fun (label, scheduling) ->
      let e = Vino_sim.Engine.create () in
      let disk = Vino_fs.Disk.create e ~scheduling () in
      let t0 = ref 0 and t1 = ref 0 in
      ignore
        (Vino_sim.Engine.spawn e (fun () ->
             t0 := Vino_sim.Engine.now e;
             let pending = ref 40 in
             let done_ = Vino_sim.Waitq.create e in
             for k = 1 to 40 do
               Vino_fs.Disk.submit disk Vino_fs.Disk.Read
                 ~block:(k * 6101 mod 200_000)
                 ~on_complete:(fun () ->
                   decr pending;
                   if !pending = 0 then ignore (Vino_sim.Waitq.signal done_))
             done;
             Vino_sim.Waitq.wait done_;
             t1 := Vino_sim.Engine.now e));
      Vino_sim.Engine.run e;
      Printf.printf "  %-9s 40 scattered reads: %8.1f ms\n" label
        (Vino_vm.Costs.us_of_cycles (!t1 - !t0) /. 1000.))
    [ ("FIFO", Vino_fs.Disk.Fifo); ("elevator", Vino_fs.Disk.Elevator) ];
  print_newline ()

let ablation_extension_technologies () =
  (* A Comparison of OS Extension Technologies (paper §5, ref [16]): run the
     same xor-8KB transform unprotected, MiSFIT-rewritten, and inside a
     bounds-checking interpreted environment. *)
  Printf.printf
    "== Ablation: extension technologies on xor-8KB (paper §5 / [16]) ==\n";
  let words = 2048 in
  let data = Array.init words (fun k -> k) in
  let run ~rewritten ~checked =
    let mem = Vino_vm.Mem.create (8 * 1024) in
    let seg = Vino_vm.Mem.segment ~base:4096 ~size:4096 in
    Array.iteri (fun k v -> Vino_vm.Mem.store mem (4096 + k) v) data;
    let obj =
      Vino_vm.Asm.assemble_exn
        (Vino_stream.Grafts.xor_encrypt_source ~key:0xAB)
    in
    let code =
      if rewritten then
        match Vino_misfit.Rewrite.process obj.Vino_vm.Asm.code with
        | Ok c -> c
        | Error e -> failwith e
      else obj.Vino_vm.Asm.code
    in
    let cpu = Vino_vm.Cpu.make ~mem ~seg ~checked () in
    Vino_vm.Cpu.set_reg cpu 1 4096;
    Vino_vm.Cpu.set_reg cpu 2 (4096 + words);
    Vino_vm.Cpu.set_reg cpu 3 words;
    match Vino_vm.Cpu.run Vino_vm.Cpu.env_trusted cpu code with
    | Vino_vm.Cpu.Halted -> Vino_vm.Costs.us_of_cycles (Vino_vm.Cpu.cycles cpu)
    | o -> failwith (Format.asprintf "%a" Vino_vm.Cpu.pp_outcome o)
  in
  let unprotected = run ~rewritten:false ~checked:false in
  let sfi = run ~rewritten:true ~checked:false in
  let interpreted = run ~rewritten:false ~checked:true in
  Printf.printf
    "  unprotected (trusted)         %8.1f us\n\
    \  MiSFIT SFI                    %8.1f us  (+%.0f%%)\n\
    \  bounds-checking interpreter   %8.1f us  (+%.0f%%)\n\
     SFI beats interpretation, as [16] reports.\n\n"
    unprotected sfi
    (100. *. (sfi -. unprotected) /. unprotected)
    interpreted
    (100. *. (interpreted -. unprotected) /. unprotected)

let ablations ~iterations () =
  ablation_sfi ~iterations ();
  ablation_extension_technologies ();
  ablation_undo ~iterations ();
  ablation_timeout ();
  ablation_elevator ()

let all ~iterations ?pool () =
  fig3 ();
  List.iter (emit ~iterations ?pool) Tables.all;
  costbenefit ~iterations ();
  ablations ~iterations ()

(* The tables the bench gate watches. *)
let tables ~iterations ?pool () =
  List.iter (emit ~iterations ?pool) Tables.gated

(* Time the gated tables serial vs fanned-out and report the ratio.
   Table output is squelched; only the timing summary survives. *)
let speedup ~jobs () =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let quiet f () =
    let saved = Unix.dup Unix.stdout in
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null;
    Fun.protect
      ~finally:(fun () ->
        flush stdout;
        Unix.dup2 saved Unix.stdout;
        Unix.close saved)
      f
  in
  let serial = time (quiet (fun () -> tables ~iterations:60 ())) in
  let pool = Vino_par.Pool.create ~domains:jobs () in
  let parallel =
    Fun.protect
      ~finally:(fun () -> Vino_par.Pool.shutdown pool)
      (fun () -> time (quiet (fun () -> tables ~iterations:60 ~pool ())))
  in
  Printf.printf
    "bench speedup (gated tables, quick iterations):\n\
    \  -j 1   %8.2f s\n\
    \  -j %-2d  %8.2f s\n\
    \  speedup %.2fx on %d available core(s)\n"
    serial jobs parallel (serial /. parallel)
    (Domain.recommended_domain_count ())

let usage () =
  prerr_endline
    ("usage: main.exe [--json] [-j N] ["
    ^ String.concat "|"
        ([ "quick"; "tables" ] @ Tables.names
        @ [ "fig3"; "costbenefit"; "ablations"; "speedup" ])
    ^ "]");
  exit 1

let () =
  let iterations = 300 in
  let args = Array.to_list Sys.argv in
  json_mode := List.mem "--json" args;
  let args = List.filter (fun a -> a <> "--json") args in
  (* -j N: fan tables out over N domains (default: all recommended
     domains; -j 1 is byte-for-byte the serial code path). *)
  let rec split_jobs acc = function
    | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | Some _ | None ->
            prerr_endline "main.exe: -j expects a positive integer";
            exit 1)
    | "-j" :: [] ->
        prerr_endline "main.exe: -j expects a positive integer";
        exit 1
    | a :: rest -> split_jobs (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let jobs_opt, args = split_jobs [] args in
  let jobs =
    match jobs_opt with
    | Some j -> j
    | None -> Domain.recommended_domain_count ()
  in
  let with_pool f =
    if jobs <= 1 then f ?pool:None ()
    else
      let pool = Vino_par.Pool.create ~domains:jobs () in
      Fun.protect
        ~finally:(fun () -> Vino_par.Pool.shutdown pool)
        (fun () -> f ?pool:(Some pool) ())
  in
  match args with
  | [ _ ] -> with_pool (all ~iterations)
  | [ _; "quick" ] ->
      (* --json quick only runs the gated tables: the figure, the
         cost-benefit lines and the ablations have no JSON form *)
      if !json_mode then with_pool (tables ~iterations:60)
      else with_pool (all ~iterations:60)
  | [ _; "tables" ] -> with_pool (tables ~iterations)
  | [ _; "costbenefit" ] -> costbenefit ~iterations ()
  | [ _; "ablations" ] -> ablations ~iterations ()
  | [ _; "fig3" ] -> fig3 ()
  | [ _; "speedup" ] ->
      (* the reference comparison point is 4 domains unless -j overrides *)
      let jobs =
        match jobs_opt with Some j -> max j 2 | None -> max 4 jobs
      in
      speedup ~jobs ()
  | [ _; name ] -> (
      match Tables.find name with
      | Some e ->
          let e = if name = "disaster" then with_wall_rows e else e in
          with_pool (fun ?pool () -> emit ~iterations ?pool e)
      | None -> usage ())
  | _ -> usage ()
