(* Differential tests for the closure-threaded translator.

   {!Vino_vm.Jit} claims bit-identity with {!Vino_vm.Cpu.run} at every
   observable point. These tests check the claim the hard way: a
   fixed-seed corpus of random programs — plus {!Vino_vm.Mutate}-spliced
   and MiSFIT-rewritten variants of each — runs under both modes in
   wrapper-style refuelled slices, and every architectural observable is
   compared after every slice:

   - outcome, pc, cycles, instruction/access counters, the
     sandbox/checkcall cycle attributions, call depth and call stack;
   - all registers and all of memory;
   - the exact (id, cycles, insns, pc) the kernel-call dispatcher saw on
     each [Kcall]/[Kcallr] (counters must be flushed before kernel code
     observes the cpu);
   - how many times the abort flag was polled and how many times the
     [Checkcall] predicate ran, under several poll intervals including
     poll-every-instruction and an abort that fires mid-run.

   The paper grafts, the serve handlers and long straight-line blocks
   run through the same comparison at every poll interval from 1 to 33.
   A final golden test renders every table of Vino_measure.Tables to JSON
   under both execution modes and requires the bytes to be identical. *)

module Insn = Vino_vm.Insn
module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Jit = Vino_vm.Jit
module Asm = Vino_vm.Asm
module Mutate = Vino_vm.Mutate
module Rewrite = Vino_misfit.Rewrite
module Json = Vino_trace.Json
module Table = Vino_measure.Table

let mem_words = 256
let seg_base = 128
let seg_size = 128

(* ------------------------------------------------------------------ *)
(* Random programs (Asm level, so Mutate can operate on them)          *)
(* ------------------------------------------------------------------ *)

let alu_ops =
  [| Insn.Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]

let cond_ops = [| Insn.Eq; Ne; Lt; Le; Gt; Ge |]

(* r0..r13: everything except MiSFIT's scratch register and sp, so the
   rewriter accepts the program. *)
let gen_reg st = Random.State.int st 14

let gen_program st : Asm.item list =
  let nblocks = 2 + Random.State.int st 4 in
  let label k = Printf.sprintf "L%d" k in
  let any_label () = label (Random.State.int st nblocks) in
  let reg () = gen_reg st in
  let item () : Asm.item =
    match Random.State.int st 100 with
    | n when n < 18 -> Li (reg (), Random.State.int st 300 - 50)
    | n when n < 26 -> Mov (reg (), reg ())
    | n when n < 38 ->
        Alu (alu_ops.(Random.State.int st 10), reg (), reg (), reg ())
    | n when n < 48 ->
        Alui
          ( alu_ops.(Random.State.int st 10),
            reg (),
            reg (),
            Random.State.int st 7 - 2 )
    | n when n < 54 -> Ld (reg (), reg (), Random.State.int st 8)
    | n when n < 60 -> St (reg (), reg (), Random.State.int st 8)
    | n when n < 64 -> Sandbox (reg ())
    | n when n < 72 ->
        Br (cond_ops.(Random.State.int st 6), reg (), reg (), any_label ())
    | n when n < 76 -> Jmp (any_label ())
    | n when n < 80 -> Call (any_label ())
    | n when n < 82 -> Ret
    | n when n < 86 -> Kcall_id (Random.State.int st 8)
    | n when n < 88 -> Kcallr (reg ())
    | n when n < 91 -> Checkcall (reg ())
    | n when n < 94 -> Push (reg ())
    | n when n < 96 -> Pop (reg ())
    | _ -> Halt
  in
  List.concat
    (List.init nblocks (fun k ->
         Asm.Label (label k)
         :: List.init (1 + Random.State.int st 6) (fun _ -> item ())))
  @ [ Asm.Halt ]

(* Label-closed fragments for Mutate splicing. *)
let gen_fragment st : Asm.item list =
  match Random.State.int st 3 with
  | 0 ->
      (* bounded countdown loop *)
      [
        Asm.Li (Asm.r9, 3 + Random.State.int st 5);
        Label "f";
        Alui (Insn.Sub, Asm.r9, Asm.r9, 1);
        Br (Insn.Gt, Asm.r9, Asm.r0, "f");
      ]
  | 1 -> [ Asm.St (Asm.r1, Asm.r2, 1); Kcall_id 1 ]
  | _ -> [ Asm.Push Asm.r3; Pop Asm.r3 ]

(* Entry facts mirroring [init_for]'s fixed registers (r1..r4 all point
   into the segment, sp at the top) and the differential environment's
   [call_ok] predicate — so the static verifier can prove some of the
   random accesses safe and the corpus exercises proof-carrying
   translation on real (not hand-picked) programs. *)
let fuzz_verifier =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:17 ());
        (3, Vino_verify.Verify.seg_window ~off:(seg_size - 3) ());
        (4, Vino_verify.Verify.seg_window ~off:5 ());
      ]
    ~callable:(fun id -> id land 1 = 0)
    ~words:seg_size ()

(* The variants of one generated program that the corpus compares:
   Mutate-derived source surgery, the MiSFIT-rewritten safe path, and —
   when the static verifier accepts the program — the proof-carrying
   variant, translated with the proof's safe-access map. Most random
   programs are verifier-rejected (a random access is genuinely
   out-of-bounds on some path); [test_corpus] asserts the corpus still
   yields a healthy number of verified variants. *)
let variants st source =
  let frag = gen_fragment st in
  let asm items = (Asm.assemble_exn items).Asm.code in
  let base = asm source in
  let muts =
    [
      ("base", base, None);
      ("prelude", asm (Mutate.splice_prelude ~prelude:frag source), None);
      ("returns", asm (Mutate.before_returns ~payload:frag source), None);
      ( "diverge",
        asm (Mutate.splice_prelude ~prelude:Mutate.diverge source),
        None );
    ]
  in
  let muts =
    match Rewrite.process base with
    | Ok rewritten -> muts @ [ ("rewritten", rewritten, None) ]
    | Error _ -> muts
  in
  match Rewrite.process_proved ~verifier:fuzz_verifier base with
  | Ok (code, Some proof) ->
      muts @ [ ("verified", code, Some (Vino_verify.Proof.safe proof)) ]
  | Ok (_, None) | Error _ -> muts

(* ------------------------------------------------------------------ *)
(* Instrumented environment and differential runner                    *)
(* ------------------------------------------------------------------ *)

type config = {
  cname : string;
  slice : int;  (** fuel granted per slice *)
  max_slices : int;
  poll_every : int;
  abort_after : int option;  (** poll count at which an abort appears *)
}

let configs =
  [
    { cname = "one-slice"; slice = 2000; max_slices = 1; poll_every = 32;
      abort_after = None };
    { cname = "sliced-abort"; slice = 93; max_slices = 40; poll_every = 4;
      abort_after = Some 7 };
    { cname = "poll-per-insn"; slice = 257; max_slices = 8; poll_every = 1;
      abort_after = None };
  ]

(* The kernel-call dispatcher observes the cpu (so translated mode must
   have flushed every counter), charges cycles, writes registers, aborts
   or faults, depending on the id class. *)
let make_env buf =
  let polls = ref 0 and checks = ref 0 and abort_at = ref max_int in
  let kcall id (t : Cpu.t) =
    Buffer.add_string buf
      (Printf.sprintf "kcall id=%d cy=%d in=%d pc=%d\n" id (Cpu.cycles t)
         (Cpu.insns_executed t) t.Cpu.pc);
    match ((id mod 5) + 5) mod 5 with
    | 0 -> Cpu.K_ok
    | 1 ->
        Cpu.charge t 17;
        Cpu.K_ok
    | 2 ->
        Cpu.set_reg t 0 (Cpu.cycles t land 0xFF);
        Cpu.K_ok
    | 3 -> if id = 3 then Cpu.K_abort "kabort" else Cpu.K_ok
    | _ -> Cpu.K_fault (Cpu.Bad_kcall id)
  in
  let call_ok id =
    incr checks;
    Buffer.add_string buf (Printf.sprintf "checkcall id=%d\n" id);
    id land 1 = 0
  in
  let poll () =
    incr polls;
    if !polls >= !abort_at then Some "async-abort" else None
  in
  ({ Cpu.kcall; call_ok; poll }, polls, checks, abort_at)

(* A deep call stack (the overflow programs reach 4,096 frames, one
   slice per call) renders as a hash of all its entries: printing every
   frame at every slice would cost quadratic time in the depth. *)
let pp_stack (c : Cpu.t) =
  if c.Cpu.depth <= 16 then
    String.concat ";" (List.map string_of_int (Cpu.call_stack c))
  else begin
    let h = ref 0 in
    for k = 0 to c.Cpu.depth - 1 do
      h := (!h * 31) + c.Cpu.callstack.(k)
    done;
    Printf.sprintf "#%x" !h
  end

let pp_snap buf tag outcome (c : Cpu.t) =
  Buffer.add_string buf
    (Format.asprintf
       "%s: %a pc=%d cy=%d in=%d acc=%d sb=%d cc=%d depth=%d stack=[%s] \
        regs=[%s]\n"
       tag Cpu.pp_outcome outcome c.Cpu.pc (Cpu.cycles c)
       (Cpu.insns_executed c) (Cpu.mem_accesses c) (Cpu.sandbox_cycles c)
       (Cpu.checkcall_cycles c)
       c.Cpu.depth (pp_stack c)
       (String.concat ";"
          (Array.to_list (Array.map string_of_int c.Cpu.regs))))

(* Execute [code] under [cfg] in one mode, returning a full rendering of
   everything observable. [step] runs one slice. *)
let run_mode ~init_regs ~init_mem cfg step_of code =
  let buf = Buffer.create 512 in
  let env, polls, checks, abort_at = make_env buf in
  (match cfg.abort_after with Some n -> abort_at := n | None -> ());
  let mem = Mem.create mem_words in
  Mem.blit_in mem 0 init_mem;
  let seg = Mem.segment ~base:seg_base ~size:seg_size in
  let cpu = Cpu.make ~mem ~seg ~fuel:cfg.slice () in
  Array.iteri (fun k v -> Cpu.set_reg cpu k v) init_regs;
  let step = step_of env cpu code in
  let rec slices k =
    let o = step () in
    pp_snap buf (Printf.sprintf "slice%d" k) o cpu;
    match o with
    | Cpu.Out_of_fuel when k < cfg.max_slices ->
        Cpu.refuel cpu cfg.slice;
        slices (k + 1)
    | _ -> ()
  in
  slices 1;
  Buffer.add_string buf
    (Printf.sprintf "polls=%d checks=%d mem=[%s]\n" !polls !checks
       (String.concat ";"
          (Array.to_list
             (Array.map string_of_int (Mem.blit_out mem 0 mem_words)))));
  Buffer.contents buf

let interp_step env cpu code ~poll_every () = Cpu.run ~poll_every env cpu code

let trans_step trans env cpu _code ~poll_every () =
  Jit.run ~poll_every env cpu trans

let differential ~seed ~vname ~cfg ~init_regs ~init_mem ?safe code =
  let a =
    run_mode ~init_regs ~init_mem cfg
      (fun env cpu code () -> interp_step env cpu code ~poll_every:cfg.poll_every ())
      code
  in
  let trans = Jit.translate ?safe code in
  let b =
    run_mode ~init_regs ~init_mem cfg
      (fun env cpu code () ->
        trans_step trans env cpu code ~poll_every:cfg.poll_every ())
      code
  in
  Alcotest.(check string)
    (Printf.sprintf "seed=%d %s %s" seed vname cfg.cname)
    a b

(* ------------------------------------------------------------------ *)
(* The corpus                                                          *)
(* ------------------------------------------------------------------ *)

(* VINO_JIT_SEEDS widens (or narrows) the fixed-seed corpus: the default
   30 keeps the tier-1 run fast; the nightly workflow sets 100 for a
   deeper sweep. Seeds are always 1..n, so a nightly failure replays
   locally with the same env var. *)
let corpus_size =
  match Sys.getenv_opt "VINO_JIT_SEEDS" with
  | None | Some "" -> 30
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | _ -> invalid_arg "VINO_JIT_SEEDS must be a positive integer")

let corpus_seeds = List.init corpus_size (fun k -> k + 1)

let init_for st =
  let init_regs =
    Array.init Insn.num_regs (fun k ->
        match k with
        | 1 -> seg_base
        | 2 -> seg_base + 17
        | 3 -> seg_base + seg_size - 3
        | 4 -> seg_base + 5
        | _ when k = Insn.sp -> seg_base + seg_size
        | _ -> Random.State.int st 600 - 100)
  in
  let init_mem =
    Array.init mem_words (fun _ -> Random.State.int st 1000 - 200)
  in
  (init_regs, init_mem)

(* One corpus seed is fully self-contained: the generator state, program,
   variants and initial machine state all derive from the seed, so seeds
   shard across domains (VINO_TEST_DOMAINS=N) with no shared state. A
   failing differential raises out of its domain and Pool.map re-raises
   the lowest-index failure in the runner. *)
(* VINO_JIT_VARIANTS narrows the corpus to a comma-separated set of
   variant names ("all" or unset runs everything) — the CI matrix uses
   it to give the proof-carrying variant its own visible job. *)
let variant_enabled =
  match Sys.getenv_opt "VINO_JIT_VARIANTS" with
  | None | Some "" | Some "all" -> fun _ -> true
  | Some s ->
      let names = String.split_on_char ',' s in
      fun v -> List.mem v names

let run_seed seed =
  let st = Random.State.make [| 0xD1FF; seed |] in
  let source = gen_program st in
  let vs = variants st source in
  let init_regs, init_mem = init_for st in
  List.iter
    (fun (vname, code, safe) ->
      if variant_enabled vname then
        List.iter
          (fun cfg ->
            differential ~seed ~vname ~cfg ~init_regs ~init_mem ?safe code)
          configs)
    vs;
  (* how many variants actually carried a proof (before filtering), so
     the corpus test can assert the proof-carrying path is exercised,
     not silently skipped *)
  List.length
    (List.filter (fun (_, _, safe) -> Option.is_some safe) vs)

let test_domains =
  match Sys.getenv_opt "VINO_TEST_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1)
  | None -> 1

let test_corpus () =
  let proved =
    if test_domains <= 1 then List.map run_seed corpus_seeds
    else
      let pool = Vino_par.Pool.create ~domains:test_domains () in
      Fun.protect
        ~finally:(fun () -> Vino_par.Pool.shutdown pool)
        (fun () -> Vino_par.Pool.map ~pool run_seed corpus_seeds)
  in
  Alcotest.(check bool)
    "corpus exercises the proof-carrying variant" true
    (List.fold_left ( + ) 0 proved > 0)

(* ------------------------------------------------------------------ *)
(* Fixed workloads: paper grafts, a serve handler, long blocks         *)
(* ------------------------------------------------------------------ *)

(* The random corpus rarely produces the shapes the translator
   specialises — MiSFIT access groups, transform-loop passes, exact-window
   self-loops, proof-elided accesses — or a basic block longer than one
   poll window. These fixed programs do, and each runs at every poll
   interval from 1 to 33 (one past the default window) both in one slice
   and in refuelled slices of 18 to 50 cycles, shorter than the
   70-instruction block, so they stop mid-block. *)
let fixed_configs =
  List.concat_map
    (fun poll ->
      [
        { cname = Printf.sprintf "poll%d-whole" poll; slice = 1_000_000;
          max_slices = 1; poll_every = poll; abort_after = None };
        { cname = Printf.sprintf "poll%d-sliced" poll; slice = 17 + poll;
          max_slices = 100_000; poll_every = poll; abort_after = None };
      ])
    (List.init 33 (fun k -> k + 1))

(* Seal through MiSFIT (under [verifier] when given) and patch every
   relocation to kernel call 1, which the differential environment
   answers by charging cycles. Patching is in place, so a proof's
   per-pc safe map stays aligned. *)
let sealed ?verifier source =
  match
    Vino_misfit.Image.seal ?verifier ~key:"jit-test" (Asm.assemble_exn source)
  with
  | Error e -> Alcotest.fail e
  | Ok image ->
      let code = Array.copy image.Vino_misfit.Image.code in
      List.iter
        (fun r -> code.(r.Asm.index) <- Insn.Kcall 1)
        image.Vino_misfit.Image.relocs;
      (code, Option.map Vino_verify.Proof.safe image.Vino_misfit.Image.proof)

(* A machine image: registers from [regs] (the rest zero, sp at the top
   of the segment), memory zero except the [(address, value)] pairs. *)
let image ~regs ~mem =
  let init_regs = Array.make Insn.num_regs 0 in
  init_regs.(Insn.sp) <- seg_base + seg_size;
  List.iter (fun (r, v) -> init_regs.(r) <- v) regs;
  let init_mem = Array.make mem_words 0 in
  List.iter (fun (a, v) -> init_mem.(a) <- v) mem;
  (init_regs, init_mem)

let crypt_words = 48

(* A straight-line block of [len] instructions, run four times by a
   countdown loop: loads and stores through r1..r4 (which point into the
   segment and are never overwritten), everything else into r5..r11. *)
let straight_line len =
  let st = Random.State.make [| 0x5714; len |] in
  let dst () = 5 + Random.State.int st 7 in
  let src () = 1 + Random.State.int st 11 in
  let ops = [| Insn.Add; Sub; Mul; And; Or; Xor; Shl; Shr |] in
  let item () : Asm.item =
    match Random.State.int st 6 with
    | 0 -> Li (dst (), Random.State.int st 100)
    | 1 -> Mov (dst (), src ())
    | 2 -> Alu (ops.(Random.State.int st 8), dst (), src (), src ())
    | 3 ->
        Alui
          (ops.(Random.State.int st 8), dst (), src (), Random.State.int st 5)
    | 4 -> Ld (dst (), 1 + Random.State.int st 4, Random.State.int st 4)
    | _ -> St (src (), 1 + Random.State.int st 4, Random.State.int st 4)
  in
  [ Asm.Li (Asm.r12, 0); Li (Asm.r13, 4); Label "top" ]
  @ List.init len (fun _ -> item ())
  @ [
      Asm.Alui (Insn.Sub, Asm.r13, Asm.r13, 1);
      Br (Insn.Gt, Asm.r13, Asm.r12, "top");
      Halt;
    ]

(* Flush sites. Every instruction that can fault, stop or hand the cpu
   to kernel code flushes the pending counts and stores its pc first. A
   site is only seen when something is pending there, so each program
   runs a confined access group (whose sandbox cycles stay pending until
   the next flush) right before a flushing instruction of each kind: in
   one block through every non-faulting kind, and in one program per
   fault (divide by a zero register or immediate, a push below memory,
   call-stack overflow through [call] and through [callr]), which shows
   the stored pc. *)
let label_pc items name =
  let rec go pc = function
    | [] -> invalid_arg name
    | Asm.Label l :: _ when l = name -> pc
    | Asm.Label _ :: rest -> go pc rest
    | _ :: rest -> go (pc + 1) rest
  in
  go 0 items

let ld_group = [ Asm.Sandbox Asm.r1; Ld (Asm.r5, Asm.r1, 0) ]
let st_group =
  [ Asm.Mov (Asm.r3, Asm.r1); Sandbox Asm.r3; St (Asm.r5, Asm.r3, 0) ]

let flush_kinds =
  List.concat
    [
      ld_group; [ Asm.Ld (Asm.r6, Asm.r2, 3) ];
      st_group; [ Asm.St (Asm.r6, Asm.r2, 4) ];
      ld_group; [ Asm.Push Asm.r5 ];
      st_group; [ Asm.Pop Asm.r7 ];
      ld_group; [ Asm.Checkcall Asm.r0 ];
      st_group; [ Asm.Alu (Insn.Div, Asm.r8, Asm.r2, Asm.r9) ];
      ld_group; [ Asm.Alui (Insn.Rem, Asm.r8, Asm.r8, 5) ];
      (* taken inside its block, then at a block end *)
      st_group; [ Asm.Br (Insn.Ne, Asm.r0, Asm.r9, "b1"); Halt; Label "b1" ];
      ld_group; [ Asm.Br (Insn.Eq, Asm.r0, Asm.r9, "b2"); Label "b2" ];
      ld_group; [ Asm.Jmp "b3"; Label "b3" ];
      st_group; [ Asm.Jmp "b4"; Label "b4" ];
      ld_group; [ Asm.Kcall_id 1 ];
      st_group; [ Asm.Kcallr Asm.r0 ];
      ld_group; [ Asm.Call "sub" ];
      st_group; [ Asm.Callr Asm.r10 ];
      ld_group; [ Asm.Halt; Label "sub" ];
      st_group; [ Asm.Ret ];
    ]

(* Self-loops whose body ends in an access group and the closing jump:
   in an unrolled window the group's charges, sandbox cycles included,
   ride into the next copy instead of being flushed. *)
let group_loops =
  List.concat
    [
      [ Asm.Li (Asm.r8, 9); Label "l1"; Br (Insn.Le, Asm.r8, Asm.r0, "l2") ];
      [ Asm.Alui (Insn.Sub, Asm.r8, Asm.r8, 1) ];
      ld_group; [ Asm.Jmp "l1"; Label "l2"; Li (Asm.r8, 9); Label "l3" ];
      [ Asm.Br (Insn.Le, Asm.r8, Asm.r0, "l4") ];
      [ Asm.Alui (Insn.Sub, Asm.r8, Asm.r8, 1) ];
      st_group; [ Asm.Jmp "l3"; Label "l4"; Halt ];
    ]

let flush_workloads () =
  let code items = (Asm.assemble_exn items).Asm.code in
  let regs extra = [ (1, seg_base); (2, seg_base + 17); (9, 3) ] @ extra in
  let run name items extra =
    (name, code items, None, image ~regs:(regs extra) ~mem:[])
  in
  [
    run "flush-kinds" flush_kinds [ (10, label_pc flush_kinds "sub") ];
    run "group-loops" group_loops [];
    run "div-zero"
      (ld_group @ [ Asm.Alu (Insn.Div, Asm.r6, Asm.r2, Asm.r0); Halt ]) [];
    run "divi-zero"
      (st_group @ [ Asm.Alui (Insn.Rem, Asm.r6, Asm.r2, 0); Halt ]) [];
    run "push-below-memory" (ld_group @ [ Asm.Push Asm.r5; Halt ])
      [ (Insn.sp, 0) ];
    run "call-overflow"
      ((Asm.Label "rec" :: ld_group) @ [ Asm.Call "rec" ]) [];
    run "callr-overflow" (st_group @ [ Asm.Callr Asm.r0 ]) [];
  ]

let fixed_workloads () =
  let crypt = Vino_stream.Grafts.xor_encrypt_source ~key:0x5EC2E7 in
  let crypt_regs =
    [ (1, seg_base); (2, seg_base + crypt_words); (3, crypt_words) ]
  in
  let crypt_mem = List.init crypt_words (fun k -> (seg_base + k, k * 37)) in
  let crypt_verifier =
    Vino_verify.Verify.config
      ~entry:
        [
          (1, Vino_verify.Verify.seg_window ());
          (2, Vino_verify.Verify.seg_window ~off:crypt_words ());
          (3, Vino_verify.Verify.arg_at_most crypt_words);
        ]
      ~words:seg_size ()
  in
  let serve_verifier =
    Vino_verify.Verify.config
      ~entry:
        [
          (1, Vino_verify.Verify.seg_window ());
          (2, Vino_verify.Verify.arg_at_most 16);
        ]
      ~words:8 ()
  in
  let serve_image tenant =
    image ~regs:[ (1, seg_base); (2, 16) ]
      ~mem:[ (seg_base, 900); (seg_base + 1, tenant); (seg_base + 2, 5);
             (seg_base + 3, 21) ]
  in
  let pages = 12 in
  let block_regs =
    [ (1, seg_base); (2, seg_base + 17); (3, seg_base + 40); (4, seg_base + 90);
      (5, 3); (6, -7); (7, 11) ]
  in
  let plain name source init = (name, fst (sealed source), None, init) in
  [
    plain "readahead"
      (Vino_fs.Readahead.app_directed_source ~lock_kcall:"ra.lock")
      (image ~regs:[ (4, seg_base) ]
         ~mem:[ (seg_base + Vino_fs.Readahead.pattern_slot, 17) ]);
    plain "evict"
      (Vino_vmem.Grafts.protect_hot_pages_source ())
      (image
         ~regs:[ (1, 1); (2, seg_base + 64); (3, pages); (4, seg_base) ]
         ~mem:
           ((seg_base, pages)
           :: List.init pages (fun k -> (seg_base + 1 + k, k + 1))
           @ List.init pages (fun j -> (seg_base + 64 + j, j + 1))));
    plain "sched"
      (Vino_sched.Grafts.scan_and_return_self_source ())
      (image ~regs:[ (1, 7); (2, seg_base); (3, 64) ] ~mem:[]);
    plain "crypt" crypt (image ~regs:crypt_regs ~mem:crypt_mem);
    (let code, safe = sealed ~verifier:crypt_verifier crypt in
     ("crypt-verified", code, safe, image ~regs:crypt_regs ~mem:crypt_mem));
  ]
  @ List.init 4 (fun tenant ->
        plain
          (Printf.sprintf "serve-%s" (Vino_net.Serve.family_name tenant))
          (Vino_net.Serve.graft_source ~tenant ~flood:false)
          (serve_image tenant))
  @ [
      (let code, safe =
         sealed ~verifier:serve_verifier
           (Vino_net.Serve.graft_source ~tenant:0 ~flood:false)
       in
       ("serve-ra-verified", code, safe, serve_image 0));
      ("block40", (Asm.assemble_exn (straight_line 40)).Asm.code, None,
       image ~regs:block_regs ~mem:[]);
      ("block70", (Asm.assemble_exn (straight_line 70)).Asm.code, None,
       image ~regs:block_regs ~mem:[]);
    ]
  @ flush_workloads ()

(* Call-stack overflow takes 4,096 calls of one refuelled slice each, so
   the overflow programs run sliced at two poll intervals only. *)
let configs_for name =
  if String.ends_with ~suffix:"-overflow" name then
    List.filter
      (fun c -> c.max_slices = 1 || c.poll_every = 1 || c.poll_every = 32)
      fixed_configs
  else fixed_configs

(* How a program ends when interpreted in one slice. *)
let interp_outcome code (init_regs, init_mem) =
  let env, _, _, _ = make_env (Buffer.create 64) in
  let mem = Mem.create mem_words in
  Mem.blit_in mem 0 init_mem;
  let seg = Mem.segment ~base:seg_base ~size:seg_size in
  let cpu = Cpu.make ~mem ~seg ~fuel:1_000_000 () in
  Array.iteri (fun k v -> Cpu.set_reg cpu k v) init_regs;
  Format.asprintf "%a" Cpu.pp_outcome (Cpu.run env cpu code)

let test_fixed_workloads () =
  let ws = fixed_workloads () in
  List.iter
    (fun (vname, code, safe, (init_regs, init_mem)) ->
      List.iter
        (fun cfg ->
          differential ~seed:0 ~vname ~cfg ~init_regs ~init_mem ?safe code)
        (configs_for vname))
    ws;
  Alcotest.(check (list (pair string string)))
    "flush-site programs end where they are meant to"
    [
      ("flush-kinds", "halted");
      ("group-loops", "halted");
      ("div-zero", "faulted: division by zero");
      ("divi-zero", "faulted: division by zero");
      ("push-below-memory", "faulted: memory fault (store to addr -1)");
      ("call-overflow", "faulted: call stack overflow");
      ("callr-overflow", "faulted: call stack overflow");
    ]
    (List.map
       (fun (name, code, _, init) -> (name, interp_outcome code init))
       (flush_workloads ()));
  let proved =
    List.filter_map
      (fun (name, _, safe, _) ->
        match safe with
        | Some m when Array.exists Fun.id m -> Some name
        | _ -> None)
      ws
  in
  Alcotest.(check (list string)) "proof maps carry safe accesses"
    [ "crypt-verified"; "serve-ra-verified" ] proved

(* Exact-window loop chains are compiled on first dispatch and stored
   into the translation with a plain array write, so domains sharing one
   translation race to fill the same slots. Each program is translated
   once and run from a domain pool, every config queued once per domain
   so neighbouring runs (same poll interval, same slots) overlap; every
   run, each on its own cpu and memory, must match the interpreter:
   outcome, counters, pc, registers and memory. *)
let test_shared_translation () =
  let ws = fixed_workloads () in
  let domains = max 4 test_domains in
  let pool = Vino_par.Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Vino_par.Pool.shutdown pool)
    (fun () ->
      List.iter
        (fun name ->
          let _, code, safe, (init_regs, init_mem) =
            List.find (fun (n, _, _, _) -> n = name) ws
          in
          let trans = Jit.translate ?safe code in
          let jobs =
            List.concat_map (fun cfg -> List.init domains (fun _ -> cfg))
              fixed_configs
          in
          let runs =
            Vino_par.Pool.map ~pool
              (fun cfg ->
                let poll_every = cfg.poll_every in
                ( run_mode ~init_regs ~init_mem cfg
                    (fun env cpu code () ->
                      interp_step env cpu code ~poll_every ())
                    code,
                  run_mode ~init_regs ~init_mem cfg
                    (fun env cpu code () ->
                      trans_step trans env cpu code ~poll_every ())
                    code ))
              jobs
          in
          List.iter2
            (fun cfg (a, b) ->
              Alcotest.(check string) (name ^ " " ^ cfg.cname) a b)
            jobs runs)
        [ "crypt"; "serve-ra" ])

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let test_empty_program () =
  let cfg = List.hd configs in
  differential ~seed:0 ~vname:"empty" ~cfg
    ~init_regs:(Array.make Insn.num_regs 0)
    ~init_mem:(Array.make mem_words 0) [||]

(* Checked mode is the interpreted-extension measurement model;
   {!Jit.run} must fall back to interpretation and agree exactly. *)
let test_checked_fallback () =
  let code =
    [|
      Insn.Li (1, seg_base + 2);
      Ld (2, 1, 0);
      Alui (Insn.Add, 2, 2, 1);
      St (2, 1, 0);
      Halt;
    |]
  in
  let run translated =
    let mem = Mem.create mem_words in
    Mem.store mem (seg_base + 2) 41;
    let seg = Mem.segment ~base:seg_base ~size:seg_size in
    let cpu = Cpu.make ~mem ~seg ~checked:true ~fuel:10_000 () in
    let o =
      if translated then Jit.run Cpu.env_trusted cpu (Jit.translate code)
      else Cpu.run Cpu.env_trusted cpu code
    in
    (o, Cpu.cycles cpu, Mem.load mem (seg_base + 2))
  in
  let oi, ci, mi = run false and ot, ct, mt = run true in
  Alcotest.(check bool) "same outcome" true (oi = ot);
  Alcotest.(check int) "same cycles (incl. check charges)" ci ct;
  Alcotest.(check int) "same memory" mi mt

(* Compiled bodies index the register file unchecked, so a program
   naming a register outside it (the assembler cannot produce one, but
   {!Jit.translate} is public) must run on the interpreter and agree with
   it exactly: the same outcome or the same exception, and the same
   counters and pc. *)
let test_bad_register_fallback () =
  let bad = Insn.num_regs in
  let run code translated =
    let mem = Mem.create mem_words in
    let seg = Mem.segment ~base:seg_base ~size:seg_size in
    let cpu = Cpu.make ~mem ~seg ~fuel:10_000 () in
    let o =
      match
        if translated then Jit.run Cpu.env_trusted cpu (Jit.translate code)
        else Cpu.run Cpu.env_trusted cpu code
      with
      | o -> Ok o
      | exception e -> Error (Printexc.to_string e)
    in
    let counters =
      [ Cpu.cycles cpu; Cpu.insns_executed cpu; Cpu.mem_accesses cpu ]
    in
    (o, counters, cpu.Cpu.pc)
  in
  List.iter
    (fun (name, code) ->
      let oi, ci, pi = run code false and ot, ct, pt = run code true in
      Alcotest.(check bool) (name ^ ": outcome or exception") true (oi = ot);
      Alcotest.(check (list int)) (name ^ ": counters") ci ct;
      Alcotest.(check int) (name ^ ": pc") pi pt)
    [
      ("reached", [| Insn.Li (1, 5); Alui (Add, 2, 1, 3); Mov (bad, 2) |]);
      ("negative", [| Insn.Li (1, seg_base); Ld (-1, 1, 0); Halt |]);
      ("unreached", [| Insn.Li (1, 5); Halt; Mov (bad, 1) |]);
    ]

let test_translation_shape () =
  (* The encryption loop translates to a handful of blocks with the
     MiSFIT access triples fused; sanity-check the stats are exposed. *)
  let code =
    (Asm.assemble_exn (Vino_stream.Grafts.xor_encrypt_source ~key:1)).Asm.code
  in
  match Rewrite.process code with
  | Error e -> Alcotest.fail e
  | Ok rewritten ->
      let t = Jit.translate rewritten in
      Alcotest.(check bool) "has blocks" true (Jit.block_count t > 0);
      Alcotest.(check bool) "fused the access sequences" true
        (Jit.fused_insns t >= 2);
      Alcotest.(check int) "keeps the source" (Array.length rewritten)
        (Array.length (Jit.source t))

(* ------------------------------------------------------------------ *)
(* Golden test: every registry table under both modes                  *)
(* ------------------------------------------------------------------ *)

let with_mode m f =
  let old = !Jit.default_mode in
  Jit.default_mode := m;
  Fun.protect ~finally:(fun () -> Jit.default_mode := old) f

(* Every registry entry, notes included: Table 4's notes measure the
   agreement case, so they are part of the cross-mode check. *)
let render_tables () =
  String.concat "\n"
    (List.map
       (fun (e : Vino_measure.Tables.entry) ->
         let notes = Option.value ~default:"" (e.notes ~iterations:2 ()) in
         notes ^ "\n"
         ^ Json.to_string
             (Table.to_json ~name:e.name ~title:e.title
                (e.rows ~iterations:2 ())))
       Vino_measure.Tables.all)

let test_tables_golden () =
  let interp = with_mode Jit.Interp render_tables in
  let translated = with_mode Jit.Translated render_tables in
  Alcotest.(check string) "every table byte-identical" interp translated

(* ------------------------------------------------------------------ *)
(* Translation cache: proof-hash keying, concurrency, digest rendering *)
(* ------------------------------------------------------------------ *)

module Kernel = Vino_core.Kernel
module Proof = Vino_verify.Proof

let cache_code = [| Insn.Li (1, seg_base); Ld (2, 1, 0); Halt |]

(* The same post-link code translated with and without a certificate must
   occupy distinct cache entries (Sign digest alone no longer keys the
   cache), and each entry must be served back on a repeat lookup. *)
let test_cache_proof_key () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let proof =
    Proof.make ~words:seg_size ~safe:[| false; true; false |] ~calls:[]
  in
  let t0 = Kernel.translate k cache_code in
  let t1 = Kernel.translate k ~proof cache_code in
  Alcotest.(check bool) "distinct translations" true (t0 != t1);
  Alcotest.(check int) "plain translation elides nothing" 0
    (Jit.elided_accesses t0);
  Alcotest.(check int) "proof-carrying elides the proven load" 1
    (Jit.elided_accesses t1);
  let stats = Kernel.translation_stats k in
  Alcotest.(check int) "two cache entries" 2 (List.length stats);
  Alcotest.(check int) "exactly one proof-keyed entry" 1
    (List.length
       (List.filter (fun (key, _, _) -> String.contains key '/') stats));
  Alcotest.(check bool) "same proof hits its entry" true
    (Kernel.translate k ~proof cache_code == t1);
  Alcotest.(check bool) "no proof hits its entry" true
    (Kernel.translate k cache_code == t0)

(* The per-kernel cache under concurrent loads from a domain pool: 128
   translate calls over 8 distinct programs from 4 domains must neither
   crash (the unsynchronised-Hashtbl bug) nor duplicate entries. *)
let test_cache_concurrent () =
  let k = Kernel.create ~mem_words:(1 lsl 16) () in
  let codes = List.init 8 (fun i -> [| Insn.Li (1, i); Insn.Halt |]) in
  let jobs = List.concat (List.init 16 (fun _ -> codes)) in
  let pool = Vino_par.Pool.create ~domains:(max 4 test_domains) () in
  Fun.protect
    ~finally:(fun () -> Vino_par.Pool.shutdown pool)
    (fun () ->
      ignore
        (Vino_par.Pool.map ~pool
           (fun code -> ignore (Kernel.translate k code : Jit.t))
           jobs));
  Alcotest.(check int) "one entry per distinct program" 8
    (List.length (Kernel.translation_stats k))

(* The LRU bound under churn: a capacity-1 cache alternating between two
   programs re-translates on every lookup (4 misses, 3 evictions, never
   a hit), while capacity 2 holds both; shrinking the bound evicts
   immediately, least-recently-used first. The stats listing must stay
   sorted so [vino inspect]-style dumps are CI-diffable. *)
let test_cache_lru_eviction () =
  let a = [| Insn.Li (1, 100); Insn.Halt |] in
  let b = [| Insn.Li (1, 200); Insn.Halt |] in
  let k = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:1 () in
  List.iter (fun c -> ignore (Kernel.translate k c : Jit.t)) [ a; b; a; b ];
  let s = Kernel.jit_cache_stats k in
  Alcotest.(check int) "alternation misses every time" 4 s.Kernel.jit_misses;
  Alcotest.(check int) "each miss evicts the resident entry" 3
    s.Kernel.jit_evictions;
  Alcotest.(check int) "no hits at capacity 1" 0 s.Kernel.jit_hits;
  Alcotest.(check int) "one live entry" 1 s.Kernel.jit_entries;
  let k2 = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:2 () in
  let t_a = Kernel.translate k2 a in
  ignore (Kernel.translate k2 b : Jit.t);
  Alcotest.(check bool) "repeat lookup hits at capacity 2" true
    (Kernel.translate k2 a == t_a);
  let s2 = Kernel.jit_cache_stats k2 in
  Alcotest.(check int) "capacity 2: two misses" 2 s2.Kernel.jit_misses;
  Alcotest.(check int) "capacity 2: one hit" 1 s2.Kernel.jit_hits;
  Alcotest.(check int) "capacity 2: no evictions" 0 s2.Kernel.jit_evictions;
  Kernel.set_jit_cache_cap k2 1;
  let s3 = Kernel.jit_cache_stats k2 in
  Alcotest.(check int) "shrink evicts to the new bound" 1
    s3.Kernel.jit_entries;
  Alcotest.(check int) "shrink counts its eviction" 1 s3.Kernel.jit_evictions;
  Alcotest.(check bool) "most recently used survives the shrink" true
    (Kernel.translate k2 a == t_a);
  let k3 = Kernel.create ~mem_words:(1 lsl 16) ~jit_cache_cap:8 () in
  List.iter
    (fun i ->
      ignore (Kernel.translate k3 [| Insn.Li (1, i); Insn.Halt |] : Jit.t))
    [ 5; 3; 9; 1 ];
  let keys =
    List.map (fun (key, _, _) -> key) (Kernel.translation_stats k3)
  in
  Alcotest.(check (list string)) "stats listing sorted for CI diffing"
    (List.sort compare keys) keys

(* [translation_stats] digests must be injective: the old rendering
   masked with [land max_int], aliasing values that differ only in the
   top bit. *)
let test_digest_hex_lossless () =
  let hex n = Kernel.digest_hex (Vino_misfit.Sign.forge n) in
  Alcotest.(check string) "-1 renders as 63-bit unsigned" "7fffffffffffffff"
    (hex (-1));
  Alcotest.(check string) "max_int keeps its distinct rendering"
    "3fffffffffffffff" (hex max_int);
  Alcotest.(check string) "min_int renders its top bit" "4000000000000000"
    (hex min_int);
  Alcotest.(check bool) "no top-bit aliasing" true (hex (-1) <> hex max_int);
  Alcotest.(check bool) "no zero aliasing" true (hex min_int <> hex 0)

let suite =
  [
    ( "jit",
      [
        Alcotest.test_case "differential fuzz corpus" `Quick test_corpus;
        Alcotest.test_case
          "paper grafts, serve handlers, long blocks at poll 1-33" `Quick
          test_fixed_workloads;
        Alcotest.test_case "one translation shared by a domain pool" `Quick
          test_shared_translation;
        Alcotest.test_case "empty program" `Quick test_empty_program;
        Alcotest.test_case "checked-mode fallback" `Quick
          test_checked_fallback;
        Alcotest.test_case "out-of-range register fallback" `Quick
          test_bad_register_fallback;
        Alcotest.test_case "translation shape" `Quick test_translation_shape;
        Alcotest.test_case "every registry table golden across modes" `Quick
          test_tables_golden;
        Alcotest.test_case "cache keyed by digest + proof hash" `Quick
          test_cache_proof_key;
        Alcotest.test_case "cache LRU bound: eviction, shrink, sorted stats"
          `Quick test_cache_lru_eviction;
        Alcotest.test_case "cache safe under a domain pool" `Quick
          test_cache_concurrent;
        Alcotest.test_case "cache digests render losslessly" `Quick
          test_digest_hex_lossless;
      ] );
  ]
