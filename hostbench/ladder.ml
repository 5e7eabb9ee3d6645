(* The per-layer ladder and the other single-layer probes.

   Ladder: for each graft, one rung per protection layer, each timed as
   calls into that layer's public entry point, with the rung below as its
   control:
     L0  vm.interp    Cpu.run under a stub environment (the control)
     L0  vm.run       Jit.run of the same code
     L1  wrapper      Wrapper.exec: env closure, kcall dispatch, slicing
     L2  txn          + Txn begin/commit, a lock acquire and an undo push
     L3  point        Graft_point.invoke from its own engine event
   Every graft is sealed through MiSFIT and loaded by the linker, so all
   rungs run the same post-link code; its kernel calls are stubs that
   succeed without touching the cpu, as in bench/wall.ml.

   Load path (seal, translate on a cache miss, load on a cache hit),
   kernel snapshot/restore and site creation per disaster family, and one
   abort with undo replay are timed the same round-robin way. *)

module Asm = Vino_vm.Asm
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Jit = Vino_vm.Jit
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Kernel = Vino_core.Kernel
module Linker = Vino_core.Linker
module Wrapper = Vino_core.Wrapper
module Graft_point = Vino_core.Graft_point
module Kcall = Vino_core.Kcall
module Verify = Vino_verify.Verify
module Site = Vino_disaster.Site

(* Every graft gets an 8192-word segment: a 4096-word shared window at
   its base (the crypt graft's 2048-word input and output) plus heap and
   stack. *)
let seg_words = 8192
let shared_words = 4096
let fuel = 1_000_000_000

type graft = {
  gname : string;
  source : Asm.item list;
  verified : bool;  (** sealed under the static verifier, proof-carrying *)
  init : Mem.t -> int -> unit;  (** the memory image, at the window base *)
  setup : int -> Cpu.t -> unit;  (** argument registers, for that base *)
}

let crypt_source = Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7

let crypt_init mem base =
  for k = 0 to 2047 do
    Mem.store mem (base + k) k
  done

let crypt_setup base cpu =
  Cpu.set_reg cpu 1 base;
  Cpu.set_reg cpu 2 (base + 2048);
  Cpu.set_reg cpu 3 2048

(* The grafts and argument images of bench/wall.ml: nop, then the paper's
   four (read-ahead, eviction, scheduling, encryption) and encryption
   under a seal-time proof. *)
let grafts =
  [
    {
      gname = "nop";
      source = [ Asm.Halt ];
      verified = false;
      init = (fun _ _ -> ());
      setup = (fun _ _ -> ());
    };
    {
      gname = "readahead";
      source = Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock";
      verified = false;
      init =
        (fun mem base ->
          Mem.store mem (base + Vino_fs.Readahead.pattern_slot) 17);
      setup = (fun base cpu -> Cpu.set_reg cpu 4 base);
    };
    {
      gname = "evict";
      source = Vino_vmem.Grafts.protect_hot_pages_source ();
      verified = false;
      init =
        (fun mem base ->
          Mem.store mem base 64;
          for k = 1 to 64 do
            Mem.store mem (base + k) k
          done;
          for j = 0 to 63 do
            Mem.store mem (base + 128 + j) (j + 1)
          done);
      setup =
        (fun base cpu ->
          Cpu.set_reg cpu 1 1;
          Cpu.set_reg cpu 2 (base + 128);
          Cpu.set_reg cpu 3 64;
          Cpu.set_reg cpu 4 base);
    };
    {
      gname = "sched";
      source = Vino_sched.Grafts.scan_and_return_self_source ();
      verified = false;
      init =
        (fun mem base ->
          for k = 0 to 127 do
            Mem.store mem (base + k) 0
          done);
      setup =
        (fun base cpu ->
          Cpu.set_reg cpu 1 7;
          Cpu.set_reg cpu 2 base;
          Cpu.set_reg cpu 3 128);
    };
    {
      gname = "crypt";
      source = crypt_source;
      verified = false;
      init = crypt_init;
      setup = crypt_setup;
    };
    {
      gname = "crypt-verified";
      source = crypt_source;
      verified = true;
      init = crypt_init;
      setup = crypt_setup;
    };
  ]

let names = List.map (fun g -> g.gname) grafts
let load_names = List.filter (fun n -> n <> "nop") names

let families =
  Site.
    [
      (Fs_readahead, "fs_readahead");
      (Vmem_evict, "vmem_evict");
      (Sched_delegate, "sched_delegate");
      (Stream_copy, "stream_copy");
      (Net_handler, "net_handler");
    ]

(* The entry facts Sc_crypt's verified path establishes, for this
   segment. *)
let crypt_verifier =
  Verify.config
    ~entry:
      [
        (1, Verify.seg_window ());
        (2, Verify.seg_window ~off:2048 ());
        (3, Verify.arg_at_most 2048);
      ]
    ~words:seg_words ()

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Permissive stub environment of the L0 rungs, as in bench/wall.ml. *)
let stub_env =
  {
    Cpu.kcall = (fun _ _ -> Cpu.K_ok);
    call_ok = (fun _ -> true);
    poll = (fun () -> None);
  }

(* Run [body] as one engine process to completion; a process that died
   with an exception fails the benchmark. *)
let in_engine (k : Kernel.t) body =
  ignore (Engine.spawn k.Kernel.engine body : Engine.proc);
  Kernel.run k;
  match Engine.failures k.Kernel.engine with
  | [] -> ()
  | (name, e) :: _ ->
      failwith (Printf.sprintf "process %s: %s" name (Printexc.to_string e))

let noop () = ()

type prepared = {
  g : graft;
  kernel : Kernel.t;
  obj : Asm.obj;
  image : Vino_misfit.Image.t;
  loaded : Linker.loaded;
  safe : bool array option;
  point : (unit, int) Graft_point.t;
  lock : Vino_txn.Lock.t;
  vcycles : int;
}

let cred = Vino_core.Cred.root

let seal_graft k g obj =
  if g.verified then Kernel.seal ~verify:crypt_verifier k obj
  else Kernel.seal k obj

let seal (p : prepared) = seal_graft p.kernel p.g p.obj

let l0_cpu (p : prepared) =
  Cpu.make ~mem:p.kernel.Kernel.mem ~seg:p.loaded.Linker.seg
    ~costs:p.kernel.Kernel.vm_costs ()

let base (p : prepared) = p.loaded.Linker.seg.Mem.base

(* One invocation on a recycled cpu; nothing on this path takes an
   optional argument, as in bench/wall.ml. *)
let l0_step (p : prepared) cpu step =
  Cpu.reset cpu;
  p.g.setup (base p) cpu;
  Cpu.refuel cpu fuel;
  step cpu

let limits = Vino_txn.Rlimit.unlimited ()

let exec (p : prepared) txn =
  let l = p.loaded in
  Wrapper.exec p.kernel ~txn ~cred ~limits ~seg:l.Linker.seg
    ~code:l.Linker.code ~flow:l.Linker.flow ~trans:l.Linker.trans
    ~setup:(p.g.setup (base p))
    ()

let l1 (p : prepared) n =
  in_engine p.kernel (fun () ->
      let txn = Txn.begin_ p.kernel.Kernel.txn_mgr ~name:"hostbench.l1" () in
      for _ = 1 to n do
        ignore (exec p txn : Cpu.t * Cpu.outcome)
      done;
      ok_exn "l1 commit" (Txn.commit txn);
      Txn.recycle txn)

let l2 (p : prepared) n =
  let mgr = p.kernel.Kernel.txn_mgr in
  in_engine p.kernel (fun () ->
      for _ = 1 to n do
        let txn = Txn.begin_ mgr ~name:"hostbench.l2" () in
        ok_exn "l2 lock"
          (Txn.acquire_lock txn p.lock Vino_txn.Lock_policy.Exclusive);
        Txn.push_undo txn ~label:"hostbench" noop;
        ignore (exec p txn : Cpu.t * Cpu.outcome);
        ok_exn "l2 commit" (Txn.commit txn);
        Txn.recycle txn
      done)

(* Each invocation is its own engine process, spawned by the previous
   one, so every call pays one event dispatch and one process start. *)
let l3 (p : prepared) n =
  let k = p.kernel in
  let rec chain i () =
    ignore (Graft_point.invoke p.point k ~cred () : int);
    if i < n then ignore (Engine.spawn k.Kernel.engine (chain (i + 1)))
  in
  in_engine k (chain 1)

type sample = {
  outcome : Cpu.outcome;
  cycles : int;
  insns : int;
  accesses : int;
  regs : int array;
}

let observe cpu outcome =
  {
    outcome;
    cycles = Cpu.cycles cpu;
    insns = Cpu.insns_executed cpu;
    accesses = Cpu.mem_accesses cpu;
    regs = Array.copy (cpu : Cpu.t).regs;
  }

let prepare g =
  let k = Kernel.create () in
  let obj = Asm.assemble_exn g.source in
  List.iter
    (fun name ->
      ignore
        (Kernel.register_kcall k ~name (fun _ -> Kcall.ok) : Kcall.fn))
    (List.sort_uniq compare
       (List.map (fun r -> r.Asm.name) obj.Asm.relocs));
  let image = ok_exn (g.gname ^ " seal") (seal_graft k g obj) in
  let loaded = ok_exn (g.gname ^ " load") (Linker.load k ~words:seg_words image) in
  g.init k.Kernel.mem loaded.Linker.seg.Mem.base;
  let safe =
    match (g.verified, image.Vino_misfit.Image.proof) with
    | false, _ -> None
    | true, Some proof -> Some (Vino_verify.Proof.safe proof)
    | true, None -> failwith (g.gname ^ ": the verifier produced no proof")
  in
  let window = ref 0 in
  let point =
    Graft_point.create ~name:("hostbench." ^ g.gname)
      ~default:(fun () -> -1)
      ~setup:(fun cpu () -> g.setup !window cpu)
      ~read_result:(fun cpu () -> Ok (Cpu.reg cpu 0))
      ()
  in
  (* heap sized so window + heap + the point's 256-word stack fill the
     segment the proof assumes *)
  ok_exn (g.gname ^ " replace")
    (Graft_point.replace point k ~cred ~shared_words
       ~heap_words:(seg_words - shared_words - 256)
       image);
  window := Option.get (Graft_point.shared_base point);
  g.init k.Kernel.mem !window;
  let p =
    {
      g;
      kernel = k;
      obj;
      image;
      loaded;
      safe;
      point;
      lock = Kernel.make_lock k ~name:("hostbench." ^ g.gname) ();
      vcycles = 0;
    }
  in
  (* Parity before any timing: the interpreter and the translation agree
     on outcome, cycles, counters and registers (bench/wall.ml's check),
     and the wrapper reaches the same result through the kernel. *)
  let run step =
    let cpu = l0_cpu p in
    observe cpu (l0_step p cpu step)
  in
  let si = run (fun cpu -> Cpu.run stub_env cpu loaded.Linker.code) in
  let st = run (fun cpu -> Jit.run stub_env cpu loaded.Linker.trans) in
  if si <> st then failwith (g.gname ^ ": interpreter and translation disagree");
  if si.outcome <> Cpu.Halted then failwith (g.gname ^ ": graft did not halt");
  let wrapped = ref None in
  in_engine k (fun () ->
      let txn = Txn.begin_ k.Kernel.txn_mgr ~name:"hostbench.check" () in
      let cpu, outcome = exec p txn in
      wrapped := Some (observe cpu outcome);
      ok_exn "check commit" (Txn.commit txn));
  (match !wrapped with
  | Some w when w.outcome = Cpu.Halted && w.cycles = si.cycles -> ()
  | _ -> failwith (g.gname ^ ": the wrapper disagrees with the bare VM"));
  { p with vcycles = si.cycles }

(* The point must still hold its graft and never have failed: a failed
   invocation would fall back to the default and time the wrong path. *)
let check_point (p : prepared) =
  if
    Graft_point.graft_failures p.point > 0 || not (Graft_point.grafted p.point)
  then
    failwith
      (Printf.sprintf "%s: graft point failed: %s" p.g.gname
         (Option.value ~default:"?" (Graft_point.last_failure p.point)))

(* Minor-heap words per call of [run 1], over a batch of [n]. *)
let minor_words run n =
  run n;
  let w0 = Gc.minor_words () in
  run n;
  (Gc.minor_words () -. w0) /. float_of_int n

type rung_set = {
  p : prepared;
  interp : Rr.variant;
  jit : Rr.variant;
  wrapper : Rr.variant;
  txn : Rr.variant;
  point : Rr.variant;
}

let rungs p =
  let g = p.g.gname in
  let icpu = l0_cpu p and tcpu = l0_cpu p in
  let code = p.loaded.Linker.code and trans = p.loaded.Linker.trans in
  let loop step cpu =
    Rr.timed (fun n ->
        for _ = 1 to n do
          ignore (l0_step p cpu step : Cpu.outcome)
        done)
  in
  {
    p;
    interp =
      Rr.variant ~layer:"vm.interp" ("vm.interp_ns." ^ g)
        (loop (fun cpu -> Cpu.run stub_env cpu code) icpu);
    jit =
      Rr.variant ~layer:"vm.run" ("vm.run_ns." ^ g)
        (loop (fun cpu -> Jit.run stub_env cpu trans) tcpu);
    wrapper =
      Rr.variant ~layer:"wrapper.exec" ("wrapper.exec_ns." ^ g)
        (Rr.timed (l1 p));
    txn = Rr.variant ~layer:"txn.exec" ("txn.exec_ns." ^ g) (Rr.timed (l2 p));
    point =
      Rr.variant ~layer:"point.invoke" ("point.invoke_ns." ^ g)
        (Rr.timed (l3 p));
  }

type ladder_row = {
  graft : string;
  rows : (string * Rr.variant) list;  (** rung label, variant *)
  deltas : (string * float) list;  (** metric name, median paired delta *)
  wrapper_words : float;
  txn_words : float;
  vcycles : int;
}

let ladder ~tag ~budget_ns =
  let sets = List.map (fun g -> rungs (prepare g)) grafts in
  let all =
    List.concat_map (fun s -> [ s.interp; s.jit; s.wrapper; s.txn; s.point ]) sets
  in
  Rr.measure ~tag ~min_rounds:15 ~budget_ns all;
  List.map
    (fun s ->
      check_point s.p;
      let g = s.p.g.gname in
      {
        graft = g;
        rows =
          [
            ("L0 interp", s.interp);
            ("L0 jit", s.jit);
            ("L1 wrapper", s.wrapper);
            ("L2 txn", s.txn);
            ("L3 point", s.point);
          ];
        deltas =
          [
            ("vm.delta_ns." ^ g, Rr.delta s.jit s.interp);
            ("wrapper.delta_ns." ^ g, Rr.delta s.wrapper s.jit);
            ("txn.delta_ns." ^ g, Rr.delta s.txn s.wrapper);
            ("point.delta_ns." ^ g, Rr.delta s.point s.txn);
          ];
        wrapper_words = minor_words (l1 s.p) 1000;
        txn_words = minor_words (l2 s.p) 1000;
        vcycles = s.p.vcycles;
      })
    sets

(* Load path, per graft other than nop: seal (MiSFIT rewrite + signing,
   plus the verifier for crypt-verified), translation on a cache miss
   (Jit.translate itself, no cache), and Linker.load on a translation
   cache hit (signature check, static verifier, kflow, proof
   revalidation, segment allocation; the segment is given back). *)
let load_path ~tag ~budget_ns =
  let ps =
    List.filter_map
      (fun g -> if g.gname = "nop" then None else Some (prepare g))
      grafts
  in
  let vs =
    List.concat_map
      (fun p ->
        let g = p.g.gname in
        let k = p.kernel in
        [
          Rr.variant ~layer:"misfit.seal" ("misfit.seal_us." ^ g)
            (Rr.timed (fun n ->
                 for _ = 1 to n do
                   ignore (ok_exn "seal" (seal p) : Vino_misfit.Image.t)
                 done));
          Rr.variant ~layer:"jit.translate" ("jit.translate_us." ^ g)
            (Rr.timed (fun n ->
                 for _ = 1 to n do
                   ignore
                     (Jit.translate ~costs:k.Kernel.vm_costs ?safe:p.safe
                        p.loaded.Linker.code
                       : Jit.t)
                 done));
          Rr.variant ~layer:"linker.load" ("linker.load_us." ^ g)
            (Rr.timed (fun n ->
                 for _ = 1 to n do
                   Linker.unload k
                     (ok_exn "load" (Linker.load k ~words:seg_words p.image))
                 done));
        ])
      ps
  in
  let misses0 = List.map (fun p -> (Kernel.jit_cache_stats p.kernel).jit_misses) ps in
  Rr.measure ~tag ~min_rounds:15 ~budget_ns vs;
  (* every timed load hit the translation cache *)
  List.iter2
    (fun p m0 ->
      if (Kernel.jit_cache_stats p.kernel).jit_misses <> m0 then
        failwith (p.g.gname ^ ": a timed load missed the translation cache"))
    ps misses0;
  vs

(* Per disaster family: Site.create, Kernel.snapshot of a never-run site,
   and Kernel.restore after one family operation has dirtied the kernel
   (only the restore itself is timed). Plus one transaction that pushes 8
   undo records and aborts, replaying them. *)
let sites_and_undo ~tag ~budget_ns =
  let snaps =
    List.concat_map
      (fun (fam, fname) ->
        let fresh = Site.create fam in
        let dirty = Site.create fam in
        let snap = Kernel.snapshot dirty.Site.kernel in
        [
          Rr.variant ~layer:"kernel.snapshot" ("kernel.snapshot_us." ^ fname)
            (Rr.timed (fun n ->
                 for _ = 1 to n do
                   ignore (Kernel.snapshot fresh.Site.kernel : Kernel.snap)
                 done));
          Rr.variant ~layer:"kernel.restore" ("kernel.restore_us." ^ fname)
            (fun n ->
              let ns = ref 0 in
              for _ = 1 to n do
                dirty.Site.drive_once ();
                Kernel.run dirty.Site.kernel;
                let t0 = Bstats.now_ns () in
                Kernel.restore dirty.Site.kernel snap;
                ns := !ns + (Bstats.now_ns () - t0)
              done;
              !ns);
        ])
      families
  in
  let k = Kernel.create ~mem_words:4096 () in
  let mgr = k.Kernel.txn_mgr in
  let replays = ref 0 in
  let bump () = incr replays in
  let undo =
    Rr.variant ~layer:"txn.abort" "txn.abort_undo_ns"
      (Rr.timed (fun n ->
           in_engine k (fun () ->
               for _ = 1 to n do
                 let txn = Txn.begin_ mgr ~name:"hostbench.abort" () in
                 for _ = 1 to 8 do
                   Txn.push_undo txn ~label:"hostbench" bump
                 done;
                 Txn.abort txn ~reason:"hostbench";
                 Txn.recycle txn
               done)))
  in
  (* Site creation allocates a whole kernel, so it runs as a group of its
     own: its garbage would otherwise be collected during the rounds of
     the small snapshot and restore calls. *)
  let creates =
    List.map
      (fun (fam, fname) ->
        Rr.variant ~layer:"site.create" ("site.create_us." ^ fname)
          (Rr.timed (fun n ->
               for _ = 1 to n do
                 ignore (Site.create fam : Site.t)
               done)))
      families
  in
  Rr.measure ~tag ~min_rounds:15 ~budget_ns:(budget_ns / 2) (snaps @ [ undo ]);
  if !replays <> 8 * Txn.aborts mgr then
    failwith "txn abort did not replay every undo record";
  Rr.measure ~tag ~min_rounds:15 ~budget_ns:(budget_ns / 2) creates;
  snaps @ [ undo ] @ creates
