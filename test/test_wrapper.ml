(* Tests for the invocation wrapper: sliced preemptible execution, CPU
   budgets, kernel-call integration — plus semantic-equivalence properties
   between original and MiSFIT-rewritten code, and the time-out
   calibration harness. *)

module Asm = Vino_vm.Asm
module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Rlimit = Vino_txn.Rlimit
module Kernel = Vino_core.Kernel
module Kcall = Vino_core.Kcall
module Wrapper = Vino_core.Wrapper
module Linker = Vino_core.Linker

let kernel_fixture () = Kernel.create ~mem_words:(1 lsl 16) ~tick:1_000 ()

let load_exn kernel source ~words =
  let obj = Asm.assemble_exn source in
  match Kernel.seal kernel obj with
  | Error e -> Alcotest.fail e
  | Ok image -> (
      match Linker.load kernel ~words image with
      | Ok loaded -> loaded
      | Error e -> Alcotest.fail e)

let exec_in_process kernel ~slice ~budget loaded =
  let result = ref None in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"wrap" (fun () ->
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"w" () in
         let _, outcome =
           Wrapper.exec kernel ~txn ~cred:Vino_core.Cred.root
             ~limits:(Rlimit.unlimited ()) ~seg:loaded.Linker.seg
             ~code:loaded.Linker.code ~flow:loaded.Linker.flow
             ~trans:loaded.Linker.trans ~slice ~budget
             ~setup:(fun _ -> ())
             ()
         in
         (match outcome with
         | Cpu.Halted -> ignore (Txn.commit txn)
         | _ -> Txn.abort txn ~reason:"test");
         result := Some outcome));
  Kernel.run kernel;
  !result

(* a busy loop of roughly [n] iterations *)
let busy_loop n : Asm.item list =
  [
    Li (Asm.r1, n);
    Li (Asm.r2, 0);
    Label "loop";
    Br (Insn.Ge, Asm.r2, Asm.r1, "out");
    Alui (Insn.Add, Asm.r2, Asm.r2, 1);
    Jmp "loop";
    Label "out";
    Li (Asm.r0, 0);
    Ret;
  ]

let test_execution_advances_virtual_time () =
  let kernel = kernel_fixture () in
  let loaded = load_exn kernel (busy_loop 10_000) ~words:512 in
  let before = Engine.now kernel.Kernel.engine in
  (match exec_in_process kernel ~slice:5_000 ~budget:max_int loaded with
  | Some Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  let elapsed = Engine.now kernel.Kernel.engine - before in
  (* ~10k iterations x ~5 cycles each, plus txn costs *)
  Alcotest.(check bool) "tens of thousands of cycles elapsed" true
    (elapsed > 40_000)

let test_timer_fires_during_graft_execution () =
  (* preemptibility: an engine timer interleaves with a running graft
     because slices advance the clock *)
  let kernel = kernel_fixture () in
  let loaded = load_exn kernel (busy_loop 100_000) ~words:512 in
  let fired_mid_run = ref false in
  let (_ : Engine.cancel) =
    Engine.at kernel.Kernel.engine 50_000 (fun () -> fired_mid_run := true)
  in
  (match exec_in_process kernel ~slice:2_000 ~budget:max_int loaded with
  | Some Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check bool) "timer fired while the graft was running" true
    !fired_mid_run

let test_budget_cuts_off () =
  let kernel = kernel_fixture () in
  let loaded =
    load_exn kernel [ Asm.Label "spin"; Jmp "spin" ] ~words:512
  in
  match exec_in_process kernel ~slice:10_000 ~budget:100_000 loaded with
  | Some Cpu.Out_of_fuel -> ()
  | o ->
      Alcotest.failf "expected out-of-fuel, got %s"
        (match o with
        | Some oc -> Format.asprintf "%a" Cpu.pp_outcome oc
        | None -> "nothing")

let test_abort_observed_between_slices () =
  let kernel = kernel_fixture () in
  let loaded =
    load_exn kernel [ Asm.Label "spin"; Jmp "spin" ] ~words:512
  in
  let result = ref None in
  ignore
    (Engine.spawn kernel.Kernel.engine ~name:"wrap" (fun () ->
         let txn = Txn.begin_ kernel.Kernel.txn_mgr ~name:"w" () in
         let (_ : Engine.cancel) =
           Engine.after kernel.Kernel.engine 30_000 (fun () ->
               Txn.request_abort txn "killed from outside")
         in
         let _, outcome =
           Wrapper.exec kernel ~txn ~cred:Vino_core.Cred.root
             ~limits:(Rlimit.unlimited ()) ~seg:loaded.Linker.seg
             ~code:loaded.Linker.code ~flow:loaded.Linker.flow
             ~trans:loaded.Linker.trans ~slice:5_000 ~budget:max_int
             ~setup:(fun _ -> ())
             ()
         in
         (if Txn.is_active txn then Txn.abort txn ~reason:"cleanup");
         result := Some outcome));
  Kernel.run kernel;
  match !result with
  | Some (Cpu.Aborted "killed from outside") -> ()
  | o ->
      Alcotest.failf "expected abort, got %s"
        (match o with
        | Some oc -> Format.asprintf "%a" Cpu.pp_outcome oc
        | None -> "nothing")

let test_kcall_can_block_on_engine () =
  (* a kernel call that performs engine waits (I/O-style) suspends the
     graft invocation and resumes it transparently *)
  let kernel = kernel_fixture () in
  let (_ : Kcall.fn) =
    Kernel.register_kcall kernel ~name:"slow.op" (fun ctx ->
        Engine.delay 123_456;
        Kcall.return ctx.Kcall.cpu 99;
        Kcall.ok)
  in
  let loaded = load_exn kernel [ Asm.Kcall "slow.op"; Ret ] ~words:512 in
  let before = Engine.now kernel.Kernel.engine in
  (match exec_in_process kernel ~slice:10_000 ~budget:max_int loaded with
  | Some Cpu.Halted -> ()
  | _ -> Alcotest.fail "expected halt");
  Alcotest.(check bool) "kernel-side delay accounted" true
    (Engine.now kernel.Kernel.engine - before >= 123_456)

(* Property: MiSFIT rewriting preserves the semantics of programs whose
   addresses stay inside the segment — same final registers, same memory. *)
let prop_rewrite_preserves_semantics =
  let open QCheck2 in
  let insn_gen =
    Gen.(
      oneof
        [
          (* in-segment stores/loads via small offsets on a base register *)
          map2
            (fun slot v -> [ Insn.Li (1, slot); Insn.Li (2, v); Insn.St (2, 1, 0) ])
            (int_range 0 63) (int_range (-50) 50);
          map2
            (fun slot rd -> [ Insn.Li (1, slot); Insn.Ld (rd, 1, 0) ])
            (int_range 0 63) (int_range 3 9);
          map2
            (fun a b -> [ Insn.Alui (Insn.Add, a, b, 1) ])
            (int_range 3 9) (int_range 3 9);
          map (fun r -> [ Insn.Push r; Insn.Pop r ]) (int_range 3 9);
        ])
  in
  Test.make ~name:"rewriting preserves in-segment semantics" ~count:150
    Gen.(list_size (int_range 0 25) insn_gen)
    (fun chunks ->
      let body = List.concat chunks in
      (* relative addresses: execute against a segment at base 0 so the
         original and rewritten versions see the same addresses *)
      let code = Array.of_list (body @ [ Insn.Halt ]) in
      let run program =
        let mem = Mem.create 1024 in
        let seg = Mem.segment ~base:0 ~size:256 in
        let cpu = Cpu.make ~mem ~seg () in
        match Cpu.run Cpu.env_trusted cpu program with
        | Cpu.Halted ->
            Some (List.init 10 (Cpu.reg cpu), Mem.blit_out mem 0 256)
        | _ -> None
      in
      match
        ( Vino_misfit.Rewrite.process ~optimize:false code,
          Vino_misfit.Rewrite.process ~optimize:true code )
      with
      | Ok rewritten, Ok optimized -> (
          match (run code, run rewritten, run optimized) with
          | Some (regs1, mem1), Some (regs2, mem2), Some (regs3, mem3) ->
              regs1 = regs2 && mem1 = mem2 && regs1 = regs3 && mem1 = mem3
          | _, _, _ -> false)
      | _, _ -> false)

let test_timeout_calibration () =
  let module TC = Vino_measure.Timeout_calib in
  let r = TC.calibrate TC.bitmap_workload in
  Alcotest.(check bool) "bitmap holds are microseconds" true
    (r.TC.observed_max_us < 100.);
  Alcotest.(check bool) "recommendation above the tail" true
    (r.TC.recommended_timeout_us > r.TC.observed_max_us);
  let v =
    TC.validate TC.bitmap_workload ~timeout_us:r.TC.recommended_timeout_us
  in
  Alcotest.(check int) "no honest transaction aborted" 0 v.TC.false_aborts;
  Alcotest.(check bool) "hog recovered (tick-bound ~10ms)" true
    (v.TC.hog_recovery_us > 0. && v.TC.hog_recovery_us < 25_000.)

let suite =
  [
    ( "wrapper",
      [
        Alcotest.test_case "execution advances virtual time" `Quick
          test_execution_advances_virtual_time;
        Alcotest.test_case "timers fire during graft execution" `Quick
          test_timer_fires_during_graft_execution;
        Alcotest.test_case "budget cuts off runaway grafts" `Quick
          test_budget_cuts_off;
        Alcotest.test_case "async abort observed between slices" `Quick
          test_abort_observed_between_slices;
        Alcotest.test_case "kernel calls may block on the engine" `Quick
          test_kcall_can_block_on_engine;
        QCheck_alcotest.to_alcotest prop_rewrite_preserves_semantics;
        Alcotest.test_case "time-out calibration (§4.5 future work)" `Slow
          test_timeout_calibration;
      ] );
  ]
