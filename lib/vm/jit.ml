(* Closure-threaded translation of graft programs.

   The interpreter ({!Cpu.run}) pays a constructor match, a cost-table
   lookup, a fuel check and a poll check on every instruction. Here all
   of that is done once, at translation time:

   - the program is split into basic blocks (leaders: pc 0, every
     branch/jump/call target, every instruction after a terminator);
   - each block's total cycle cost and instruction count are computed
     statically from the cost table;
   - every instruction is compiled to a pre-resolved closure; the block
     body is the chain of those closures (direct threading);
   - two superinstruction shapes are fused: an access group (an
     optional ALU op, a MiSFIT-confined or proof-elided [Ld]/[St], an
     optional ALU op, and a block-final [Jmp]) and a whole transform-loop
     pass (guard [Br], two access groups, loop-closing [Jmp]); a
     straight-line self-loop is also unrolled to fill a poll window,
     each window size compiled on its first dispatch;
   - the fuel and abort-poll checks run once per block, not once per
     instruction.

   Equivalence with the interpreter is maintained exactly; the argument
   (DESIGN.md §11) rests on two mechanisms:

   Fast-path entry conditions. A block body runs only when
   [cycles + cost <= fuel] (no intermediate instruction could have seen
   [cycles > fuel], because cycles grow monotonically by partial sums of
   [cost]) and [since_poll + len <= poll_every] (no intermediate
   instruction could have reached a poll point). Within the body,
   instructions that cannot fault or observe the machine accumulate
   their cycle/instruction/access/sandbox counts statically; any
   instruction that can fault, stop, or hand the cpu to kernel code
   (memory access, Div/Rem, Checkcall, Kcall, every terminator) first
   adds the accumulated counts and its own charge through the one
   function {!flush} and stores its own pc, so the architectural state
   at every observable point — fault, abort, kernel call — is exactly
   what the interpreter would expose. Each fused shape is detected once
   per compiled pc ({!shape_at}).

   Careful path. When an entry condition fails (a poll point or the fuel
   limit falls inside the tail), the driver executes one instruction
   through its one-instruction tail [k, k + 1), built by the same block
   compiler, then tries the next pc's tail. That tail has flushed its
   charge by the time it returns, so the next loop-head check meters
   fuel and polls exactly where the interpreter does. Every pc has its
   own compiled tail, so execution that resumes mid-block (the wrapper
   refuels and re-enters at an arbitrary pc) stays on the fast path. The
   driver re-checks fuel, poll and pc bounds in the interpreter's order
   before every step. *)

type mode = Interp | Translated

let default_mode = ref Translated

type ctx = {
  (* [cpu]/[env] are mutable only so a finished run can park the context
     in a per-domain pool without retaining the machine it ran. *)
  mutable cpu : Cpu.t;
  mutable env : Cpu.env;
  (* Closures hand control back as a bare pc (no allocation on the hot
     transfer path); to finish instead, a closure calls {!finish}, which
     raises this flag and parks the outcome. The driver reads and the
     run entry resets them. *)
  mutable fin : bool;
  mutable out : Cpu.outcome;
  (* Blocks extend through a not-taken conditional branch; when a branch
     inside a body is taken, the body exits early and records here how
     many of the block's instructions it did NOT execute, so the driver
     can correct its poll-counter bookkeeping. Zero otherwise. *)
  mutable back : int;
}

let finish ctx o =
  ctx.fin <- true;
  ctx.out <- o;
  0

type t = {
  source : Insn.t array;
  nblocks : int;
  fused : int;
  (* Accesses compiled as bare (non-flushing) superinstructions because a
     carried proof marks them unable to fault. *)
  elided : int;
  (* Per-pc tails: [body_of_pc.(pc)] executes from [pc] to the end of
     its basic block, or for one default poll window if that is shorter,
     charging [cost_of_pc.(pc)] cycles over [len_of_pc.(pc)]
     instructions. Compiling every suffix (not just block heads) keeps
     execution on the fast path when a slice or an abort poll resumes
     mid-block. *)
  body_of_pc : (ctx -> int) array;
  cost_of_pc : int array;
  len_of_pc : int array;
  (* Unrolled self-loops: when the tail at [pc] ends with a [Jmp] back
     to a head [h <= pc] whose own tail is the full loop body (a
     straight-line loop), [exact_body.(pc).(room)] consumes the
     remaining poll window — all [room] instructions — in a single
     dispatch: it finishes the current pass, chains whole compiled
     copies of the body (each copy's final jump falls directly into the
     next copy's first closure), and ends with a compiled prefix of the
     next pass cut at exactly the window boundary. The pending
     cycle/insn/access counts thread across the copies, so the whole
     window flushes once, at its end. One driver dispatch per poll
     window, from any loop phase, with no division and no
     remainder hops. [exact_cost.(pc).(room)] is the cycle charge of
     that chain, checked against the fuel budget before dispatch (an
     under-fuelled window takes the careful path, which meters fuel per
     instruction). A zero-length array marks a non-loop pc; an early
     exit reports its not-run remainder through [ctx.back] like any
     inline branch. Each chain is compiled on its first dispatch: the
     slot starts as a stub that compiles the chain, stores it in place
     of itself and runs it. *)
  exact_body : (ctx -> int) array array;
  exact_cost : int array array;
  (* [slow.(pc)] is the one-instruction tail [pc, pc + 1). *)
  slow : (ctx -> int) array;
  (* Every register number in [source] is in range, licensing the
     unchecked register indexing in compiled bodies; {!run} interprets a
     program that fails this scan. *)
  regs_ok : bool;
}

let source t = t.source
let block_count t = t.nblocks
let fused_insns t = t.fused
let elided_accesses t = t.elided

(* -------------------------------------------------------------------- *)
(* Pre-resolved operators                                                *)
(* -------------------------------------------------------------------- *)

let cond_fn : Insn.cond -> int -> int -> bool = function
  | Eq -> fun a b -> a = b
  | Ne -> fun a b -> a <> b
  | Lt -> fun a b -> a < b
  | Le -> fun a b -> a <= b
  | Gt -> fun a b -> a > b
  | Ge -> fun a b -> a >= b

(* Operators that cannot fault, encoded as small integers and evaluated
   by {!eval_opc}'s inline match inside closure bodies. The match
   compiles to a jump table whose target the branch predictor pins in a
   loop; calling a per-operator closure instead would spill the body's
   live registers around every call — measurably slower on the fused hot
   path. Shift clamping matches {!Insn.eval_alu} exactly. *)
let opcode : Insn.alu -> int option = function
  | Add -> Some 0
  | Sub -> Some 1
  | Mul -> Some 2
  | And -> Some 3
  | Or -> Some 4
  | Xor -> Some 5
  | Shl -> Some 6
  | Shr -> Some 7
  | Div | Rem -> None

let[@inline] eval_opc o a b =
  match o with
  | 0 -> a + b
  | 1 -> a - b
  | 2 -> a * b
  | 3 -> a land b
  | 4 -> a lor b
  | 5 -> a lxor b
  | 6 -> if b < 0 then a else if b >= Sys.int_size then 0 else a lsl b
  | _ ->
      if b < 0 then a
      else if b >= Sys.int_size then if a < 0 then -1 else 0
      else a asr b

(* Div/Rem share the interpreter's code path, fault mapping included. *)
let faulting_alu op a b =
  try Insn.eval_alu op a b
  with Division_by_zero -> raise (Cpu.Fault_exn Cpu.Division_by_zero)

(* Instructions that end a basic block. [Kcall]/[Kcallr] terminate
   because the kernel function receives the cpu: it may observe any
   counter, charge cycles or refuel, so state must be architecturally
   exact before dispatch and the driver's checks must rerun after. *)
let terminates : Insn.t -> bool = function
  | Br _ | Jmp _ | Call _ | Callr _ | Ret | Kcall _ | Kcallr _ | Halt -> true
  | Li _ | Mov _ | Alu _ | Alui _ | Ld _ | St _ | Push _ | Pop _ | Sandbox _
  | Checkcall _ ->
      false

(* -------------------------------------------------------------------- *)
(* Fast path: block bodies                                               *)
(* -------------------------------------------------------------------- *)

(* A recognized access-group superinstruction. Two cores qualify:
   - confined: the access reads or writes the register the preceding
     [Sandbox] just confined, at offset 0 — the only address shapes
     MiSFIT emits — so when the segment lies inside memory the access
     cannot fault;
   - bare: a proof-elided access ([safe_at]), non-faulting by carried
     certificate, at any base/offset.
   Either way the whole group compiles as one straight-line,
   non-flushing closure. An ALU op forming the address before the group
   and an ALU op after it (consuming a load's datum, or the loop
   bookkeeping after a store) fuse into the same closure. *)
type confined = {
  c_pre : (int * int * int * int * bool) option;
      (* (opcode, rd, ra, operand, operand_is_immediate) *)
  c_sb : int;  (* pc of the Sandbox, for its cycle attribution;
                  -1 for a bare (proof-elided) core *)
  c_dst : int;  (* register receiving the sandboxed address *)
  c_src : int;  (* register holding the raw address (confined) or the
                  access base register (bare) *)
  c_off : int;  (* access offset: 0 for confined cores, any for bare *)
  c_acc : int;  (* pc of the Ld/St *)
  c_tail : (int * int * int * int * bool) option;
  c_stop : int;  (* first pc after the group *)
}

let alu_parts : Insn.t -> (int * int * int * int * bool) option
    = function
  | Alu (op, rd, ra, rb) -> (
      match opcode op with
      | Some o -> Some (o, rd, ra, rb, false)
      | None -> None)
  | Alui (op, rd, ra, imm) -> (
      match opcode op with
      | Some o -> Some (o, rd, ra, imm, true)
      | None -> None)
  | _ -> None

(* An optional fused ALU op as (opcode, rd, ra, operand, is_immediate),
   with opcode -1 when there is none. *)
let alu_slot = function Some parts -> parts | None -> (-1, 0, 0, 0, false)

(* The instruction at [k], or [Halt] (which matches no group pattern)
   past [stop]. *)
let insn_at prog ~stop k : Insn.t = if k < stop then prog.(k) else Halt

let confined_at prog ~safe_at ~stop pc : confined option =
  let pre, p =
    match alu_parts prog.(pc) with
    | Some parts when pc + 1 < stop -> (Some parts, pc + 1)
    | _ -> (None, pc)
  in
  let core =
    match
      (insn_at prog ~stop p, insn_at prog ~stop (p + 1),
       insn_at prog ~stop (p + 2))
    with
    | Mov (ra, rs), Sandbox a, (Ld (_, b, 0) | St (_, b, 0))
      when a = ra && b = ra ->
        Some (p + 1, ra, rs, 0, p + 2)
    | Sandbox rs, (Ld (_, b, 0) | St (_, b, 0)), _ when b = rs ->
        Some (p, rs, rs, 0, p + 1)
    (* A proof-elided access needs no sandbox: the bare [Ld]/[St] itself
       is the core, at whatever base/offset the verified code uses. *)
    | (Ld (_, b, off) | St (_, b, off)), _, _ when safe_at p ->
        Some (-1, b, b, off, p)
    | _ -> None
  in
  match core with
  | None -> None
  | Some (c_sb, c_dst, c_src, c_off, c_acc) ->
      (* after a load the tail ALU typically consumes the datum; after a
         store it is the loop bookkeeping (index increment) — either way
         it is straight-line and non-faulting, so it rides along *)
      let c_tail = alu_parts (insn_at prog ~stop (c_acc + 1)) in
      let c_stop = c_acc + 1 + match c_tail with Some _ -> 1 | None -> 0 in
      Some { c_pre = pre; c_sb; c_dst; c_src; c_off; c_acc; c_tail; c_stop }

(* The fused shape at a pc, detected once per compiled pc. *)
type shape =
  | Pass of confined * confined * int
      (* transform-loop pass at a [Br]: two access groups, then a
         loop-closing [Jmp] to the int *)
  | Group of confined
  | Single

let shape_at prog ~safe_at ~stop pc =
  match (prog.(pc) : Insn.t) with
  | Alu _ | Alui _ | Mov _ | Sandbox _ | Ld _ | St _ -> (
      match confined_at prog ~safe_at ~stop pc with
      | Some c -> Group c
      | None -> Single)
  | Br _ when pc + 1 < stop -> (
      match confined_at prog ~safe_at ~stop (pc + 1) with
      | Some g1 when g1.c_stop < stop - 1 -> (
          match confined_at prog ~safe_at ~stop g1.c_stop with
          | Some g2 when g2.c_stop = stop - 1 -> (
              match (prog.(g2.c_stop) : Insn.t) with
              | Jmp target -> Pass (g1, g2, target)
              | _ -> Single)
          | _ -> Single)
      | _ -> Single)
  | _ -> Single

(* The static cycle cost of instructions [lo, hi). *)
let sum_cost costs prog lo hi =
  let c = ref 0 in
  for m = lo to hi - 1 do
    c := !c + Costs.insn costs prog.(m)
  done;
  !c

(* The one charge rule of compiled bodies. Before anything that can
   fault, stop or observe the machine, the pending counts are added to
   the cpu: sandbox cycles [ps], and cycles [dc], instructions [di] and
   memory accesses [da], each of the last three already including the
   flushing instruction's own charge (the interpreter charges an
   instruction before executing it). *)
let[@inline] flush (t : Cpu.t) ps dc di da =
  if ps <> 0 then t.sandbox_cy <- t.sandbox_cy + ps;
  t.cycles <- t.cycles + dc;
  t.insns <- t.insns + di;
  t.accesses <- t.accesses + da

(* Compile instructions [start, stop) into one closure chain. [pend_c] /
   [pend_i] / [pend_a] / [pend_s] are cycles, instructions, memory
   accesses and sandbox cycles executed since the last {!flush}; every
   instruction that can fault, stop or observe the cpu flushes them with
   its own charge and stores its own pc first. [safe_at pc] holds when a
   carried verification proof guarantees the access at [pc] cannot
   fault: such a [Ld]/[St] is compiled like any other non-faulting
   straight-line instruction — no flush, no pc store — and its access
   count joins the pending accumulator. *)
(* Compiled bodies index the register file with compile-time register
   numbers that [translate] validates up front (a program that fails
   validation is never run translated — see [regs_ok]), and the program
   array with indices guarded by [stop <= Array.length prog], so
   indexing inside [compile_block] is unchecked: the [Array] shadow is
   scoped to this submodule. Everything else keeps checked indexing. *)
module Fast_body = struct
  module Array = struct
    include Stdlib.Array

    external get : 'a array -> int -> 'a = "%array_unsafe_get"
    external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
  end

  let compile_block ~costs ~safe_at ?chain ?(extra_back = 0)
      ?(pend0 = (0, 0, 0, 0)) prog ~start ~stop ~fused ~elided =
  (* [chain] turns this block into one copy of an unrolled self-loop:
     the block-final [Jmp] (whose target is [start] by construction at
     the call site) falls straight into the next copy's first closure
     instead of handing the target back to the driver. It is a
     compile-time continuation: invoked once, during compilation, with
     the pending cycle/insn/access/sandbox counts accumulated up to and
     including the jump, and expected to return the next copy compiled
     with those counts as its [pend0] — so a whole unrolled window
     flushes once, at its final flush point, instead of once per copy.
     Anything observable inside a copy (a fault, a kcall, a taken
     branch) still flushes the carried pends first, exactly as within a
     single block. [extra_back] is the instruction count of the copies
     that follow, added to an inline branch's not-run remainder so the
     driver's poll arithmetic covers the whole unrolled sequence. *)
  let cost_of pc = Costs.insn costs prog.(pc) in
  let rec comp pc pend_c pend_i pend_a pend_s : ctx -> int =
    if pc >= stop then
      fun ctx ->
        flush ctx.cpu pend_s pend_c pend_i pend_a;
        pc
    else
      let next = pc + 1 in
      let i : Insn.t = prog.(pc) in
      let own = cost_of pc in
      (* The pending counts plus this instruction's own charge: what a
         flush here adds, or what stays pending after it. *)
      let dc = pend_c + own
      and di = pend_i + 1
      and da =
        match i with Ld _ | St _ | Push _ | Pop _ -> pend_a + 1 | _ -> pend_a
      in
      match (shape_at prog ~safe_at ~stop pc, i) with
      (* ---- fused superinstructions ---- *)
      | Pass (g1, g2, jtarget), Br (bc, bra, brb, btarget) -> (
          (* The complete rhythm of a transform loop — guard branch, two
             access groups (load side, store side), loop-closing jump —
             as one closure. Both groups are non-faulting (confined or
             proof-elided, see {!confined_at}), so nothing between the
             branch test and the jump's flush can observe the machine:
             one flush at the jump covers the whole pass. The taken
             branch exits early exactly like an inline [Br]. *)
          fused := !fused + (stop - pc - 1);
          if g1.c_sb < 0 then incr elided;
          if g2.c_sb < 0 then incr elided;
          let cmp = cond_fn bc in
          let back = stop - next + extra_back in
          let pass_c = pend_c + sum_cost costs prog pc stop
          and pass_i = pend_i + (stop - pc)
          and pass_a = pend_a + 2 in
          let sb (g : confined) = if g.c_sb < 0 then 0 else cost_of g.c_sb in
          let ps = pend_s + sb g1 + sb g2 in
          let part (g : confined) =
            let pre_o, pre_d, pre_a, pre_x, pre_imm = alu_slot g.c_pre in
            let tl_o, tl_d, tl_a, tl_x, tl_imm = alu_slot g.c_tail in
            let is_ld, rw =
              match (prog.(g.c_acc) : Insn.t) with
              | Ld (rd, _, _) -> (true, rd)
              | St (rv, _, _) -> (false, rv)
              | _ -> assert false
            in
            ( pre_o, pre_d, pre_a, pre_x, pre_imm, g.c_sb >= 0, is_ld, rw,
              g.c_dst, g.c_src, g.c_off, tl_o, tl_d, tl_a, tl_x, tl_imm )
          in
          let ( p1o, p1d, p1a, p1x, p1i, p1sb, p1ld, p1rw, p1dst, p1src,
                p1off, q1o, q1d, q1a, q1x, q1i ) =
            part g1
          in
          let ( p2o, p2d, p2a, p2x, p2i, p2sb, p2ld, p2rw, p2dst, p2src,
                p2off, q2o, q2d, q2a, q2x, q2i ) =
            part g2
          in
          let effects ctx =
            let t : Cpu.t = ctx.cpu in
            let r = t.regs in
            if p1o >= 0 then
              r.(p1d) <- eval_opc p1o r.(p1a) (if p1i then p1x else r.(p1x));
            if p1sb then begin
              let x = Mem.sandbox t.seg r.(p1src) in
              r.(p1dst) <- x;
              if p1ld then r.(p1rw) <- Mem.unsafe_load t.mem x
              else Mem.unsafe_store t.mem x r.(p1rw)
            end
            else if p1ld then r.(p1rw) <- Mem.load t.mem (r.(p1src) + p1off)
            else Mem.store t.mem (r.(p1src) + p1off) r.(p1rw);
            if q1o >= 0 then
              r.(q1d) <- eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
            if p2o >= 0 then
              r.(p2d) <- eval_opc p2o r.(p2a) (if p2i then p2x else r.(p2x));
            if p2sb then begin
              let x = Mem.sandbox t.seg r.(p2src) in
              r.(p2dst) <- x;
              if p2ld then r.(p2rw) <- Mem.unsafe_load t.mem x
              else Mem.unsafe_store t.mem x r.(p2rw)
            end
            else if p2ld then r.(p2rw) <- Mem.load t.mem (r.(p2src) + p2off)
            else Mem.store t.mem (r.(p2src) + p2off) r.(p2rw);
            if q2o >= 0 then
              r.(q2d) <- eval_opc q2o r.(q2a) (if q2i then q2x else r.(q2x))
          in
          let taken ctx =
            flush ctx.cpu pend_s dc di da;
            ctx.back <- back;
            btarget
          in
          match chain with
          | None ->
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                if cmp t.regs.(bra) t.regs.(brb) then taken ctx
                else begin
                  effects ctx;
                  flush t ps pass_c pass_i pass_a;
                  jtarget
                end
          | Some kont ->
              (* The whole pass's counts ride into the next copy's
                 pending accumulators: nothing between here and the
                 chain's next flush point can observe the machine. *)
              let g = kont pass_c pass_i pass_a ps in
              (* The canonical transform-loop pass — [Ge] guard on the
                 index, address = base + index on both sides, a datum
                 op after the load, the index advance after the store —
                 is the shape this arm exists for, so it gets a fully
                 specialized closure: every shape test and opcode
                 below is resolved here, at build time. The register
                 writes are identical to [effects]'s, in the same
                 order. *)
              let canon =
                (match bc with Ge -> true | _ -> false)
                && p1o = 0 && (not p1i) && p1ld && q1o >= 0
                && p2o = 0 && (not p2i) && (not p2ld)
                && q2o = 0 && q2i
              in
              if canon && p1sb && p2sb then
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  let r = t.regs in
                  if r.(bra) >= r.(brb) then taken ctx
                  else begin
                    r.(p1d) <- r.(p1a) + r.(p1x);
                    let x = Mem.sandbox t.seg r.(p1src) in
                    r.(p1dst) <- x;
                    r.(p1rw) <- Mem.unsafe_load t.mem x;
                    r.(q1d) <-
                      eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                    r.(p2d) <- r.(p2a) + r.(p2x);
                    let x2 = Mem.sandbox t.seg r.(p2src) in
                    r.(p2dst) <- x2;
                    Mem.unsafe_store t.mem x2 r.(p2rw);
                    r.(q2d) <- r.(q2a) + q2x;
                    g ctx
                  end
              else if canon && (not p1sb) && not p2sb then
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  let r = t.regs in
                  if r.(bra) >= r.(brb) then taken ctx
                  else begin
                    r.(p1d) <- r.(p1a) + r.(p1x);
                    r.(p1rw) <- Mem.load t.mem (r.(p1src) + p1off);
                    r.(q1d) <-
                      eval_opc q1o r.(q1a) (if q1i then q1x else r.(q1x));
                    r.(p2d) <- r.(p2a) + r.(p2x);
                    Mem.store t.mem (r.(p2src) + p2off) r.(p2rw);
                    r.(q2d) <- r.(q2a) + q2x;
                    g ctx
                  end
              else
                fun ctx ->
                  let t : Cpu.t = ctx.cpu in
                  if cmp t.regs.(bra) t.regs.(brb) then taken ctx
                  else begin
                    effects ctx;
                    g ctx
                  end)
      | Group c, _ -> (
          (* An access-group superinstruction (see {!confined_at}): the
             accessed address is the just-sandboxed register at offset 0,
             so it is inside the segment by construction — or the access
             carries a proof making it non-faulting outright (bare core).
             The driver only takes the fast path when the segment lies
             inside memory ({!seg_confined}), so the access cannot fault
             — no flush, no pc store; every count joins the pending
             accumulator like any straight-line instruction. [sandbox_cy]
             joins a fourth pending accumulator ([pend_s]) dumped at the
             next flush point — the earliest the interpreter's value is
             observable, by which time it includes this charge either
             way. The optional address-forming prelude and trailing ALU
             ops ride along: they are non-faulting and sequenced exactly
             as the interpreter would, so the whole compute/sandbox/
             access/consume rhythm of a MiSFIT (or verified) loop body is
             one closure. *)
          let count = c.c_stop - pc in
          fused := !fused + (count - 1);
          if c.c_sb < 0 then incr elided;
          let pend_c = pend_c + sum_cost costs prog pc c.c_stop
          and pend_i = pend_i + count
          and pend_a = pend_a + 1 in
          let ps = pend_s + if c.c_sb < 0 then 0 else cost_of c.c_sb in
          let o1, d1, a1, x1, imm1 = alu_slot c.c_pre in
          let o2, d2, a2, x2, imm2 = alu_slot c.c_tail in
          let dst = c.c_dst and src = c.c_src in
          (* A loop-closing [Jmp] right after the group fuses too:
             the flush it would perform moves into the confined
             closure, which then hands the branch target straight
             back to the driver — one closure for the whole
             compute/sandbox/access/advance/jump rhythm. *)
          let jmp_target =
            if c.c_stop = stop - 1 then
              match (prog.(c.c_stop) : Insn.t) with
              | Jmp target -> Some target
              | _ -> None
            else None
          in
          let bare = c.c_sb < 0 in
          let off = c.c_off in
          match ((prog.(c.c_acc) : Insn.t), jmp_target) with
          | Ld (rd, _, _), None when not bare ->
              let after = comp c.c_stop pend_c pend_i pend_a ps in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                let x = Mem.sandbox t.seg r.(src) in
                r.(dst) <- x;
                r.(rd) <- Mem.unsafe_load t.mem x;
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                after ctx
          | St (rv, _, _), None when not bare ->
              let after = comp c.c_stop pend_c pend_i pend_a ps in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                let x = Mem.sandbox t.seg r.(src) in
                r.(dst) <- x;
                Mem.unsafe_store t.mem x r.(rv);
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                after ctx
          | Ld (rd, _, _), None ->
              let after = comp c.c_stop pend_c pend_i pend_a ps in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                r.(rd) <- Mem.load t.mem (r.(src) + off);
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                after ctx
          | St (rv, _, _), None ->
              let after = comp c.c_stop pend_c pend_i pend_a ps in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                Mem.store t.mem (r.(src) + off) r.(rv);
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2));
                after ctx
          | Ld (rd, _, _), Some target ->
              incr fused;
              let jc = pend_c + cost_of c.c_stop and ji = pend_i + 1 in
              let effects ctx =
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                if bare then r.(rd) <- Mem.load t.mem (r.(src) + off)
                else begin
                  let x = Mem.sandbox t.seg r.(src) in
                  r.(dst) <- x;
                  r.(rd) <- Mem.unsafe_load t.mem x
                end;
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2))
              in
              (match chain with
              | None ->
                  fun ctx ->
                    effects ctx;
                    flush ctx.cpu ps jc ji pend_a;
                    target
              | Some kont ->
                  let g = kont jc ji pend_a ps in
                  fun ctx ->
                    effects ctx;
                    g ctx)
          | St (rv, _, _), Some target ->
              incr fused;
              let jc = pend_c + cost_of c.c_stop and ji = pend_i + 1 in
              let effects ctx =
                let t : Cpu.t = ctx.cpu in
                let r = t.regs in
                if o1 >= 0 then
                  r.(d1) <- eval_opc o1 r.(a1) (if imm1 then x1 else r.(x1));
                if bare then Mem.store t.mem (r.(src) + off) r.(rv)
                else begin
                  let x = Mem.sandbox t.seg r.(src) in
                  r.(dst) <- x;
                  Mem.unsafe_store t.mem x r.(rv)
                end;
                if o2 >= 0 then
                  r.(d2) <- eval_opc o2 r.(a2) (if imm2 then x2 else r.(x2))
              in
              (match chain with
              | None ->
                  fun ctx ->
                    effects ctx;
                    flush ctx.cpu ps jc ji pend_a;
                    target
              | Some kont ->
                  let g = kont jc ji pend_a ps in
                  fun ctx ->
                    effects ctx;
                    g ctx)
          | _ -> assert false)
      (* ---- straight-line instructions ---- *)
      | _, Li (rd, v) ->
          let after = comp next dc di da pend_s in
          fun ctx ->
            (ctx.cpu : Cpu.t).regs.(rd) <- v;
            after ctx
      | _, Mov (rd, rs) ->
          let after = comp next dc di da pend_s in
          fun ctx ->
            let r = (ctx.cpu : Cpu.t).regs in
            r.(rd) <- r.(rs);
            after ctx
      | _, Sandbox rr ->
          let after = comp next dc di da pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            t.regs.(rr) <- Mem.sandbox t.seg t.regs.(rr);
            t.sandbox_cy <- t.sandbox_cy + own;
            after ctx
      | _, Alu (op, rd, ra, rb) -> (
          match opcode op with
          | Some o ->
              let after = comp next dc di da pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- eval_opc o r.(ra) r.(rb);
                after ctx
          | None ->
              let after = comp next 0 0 0 0 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                flush t pend_s dc di da;
                t.pc <- pc;
                let r = t.regs in
                r.(rd) <- faulting_alu op r.(ra) r.(rb);
                after ctx)
      | _, Alui (op, rd, ra, imm) -> (
          match opcode op with
          | Some o ->
              let after = comp next dc di da pend_s in
              fun ctx ->
                let r = (ctx.cpu : Cpu.t).regs in
                r.(rd) <- eval_opc o r.(ra) imm;
                after ctx
          | None ->
              let after = comp next 0 0 0 0 in
              fun ctx ->
                let t : Cpu.t = ctx.cpu in
                flush t pend_s dc di da;
                t.pc <- pc;
                let r = t.regs in
                r.(rd) <- faulting_alu op r.(ra) imm;
                after ctx)
      | _, Ld (rd, rb, off) ->
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            t.regs.(rd) <- Mem.load t.mem (t.regs.(rb) + off);
            after ctx
      | _, St (rv, rb, off) ->
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            Mem.store t.mem (t.regs.(rb) + off) t.regs.(rv);
            after ctx
      | _, Push rv ->
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            let r = t.regs in
            r.(Insn.sp) <- r.(Insn.sp) - 1;
            Mem.store t.mem r.(Insn.sp) r.(rv);
            after ctx
      | _, Pop rd ->
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            let r = t.regs in
            r.(rd) <- Mem.load t.mem r.(Insn.sp);
            r.(Insn.sp) <- r.(Insn.sp) + 1;
            after ctx
      | _, Checkcall rr ->
          let after = comp next 0 0 0 0 in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.checkcall_cy <- t.checkcall_cy + own;
            t.pc <- pc;
            let id = t.regs.(rr) in
            if ctx.env.call_ok id then after ctx
            else raise (Cpu.Fault_exn (Cpu.Bad_call_target id))
      (* ---- conditional branch inside the block ---- *)
      | _, Br (c, ra, rb, target) when next < stop ->
          (* Not taken: fall through inline, costs still pending. Taken:
             flush, record the unexecuted remainder for the driver's
             poll counter, and exit early. *)
          let cmp = cond_fn c in
          let back = stop - next + extra_back in
          let after = comp next dc di da pend_s in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            if cmp t.regs.(ra) t.regs.(rb) then begin
              flush t pend_s dc di da;
              ctx.back <- back;
              target
            end
            else after ctx
      (* ---- terminators ---- *)
      | _, Br (c, ra, rb, target) ->
          let cmp = cond_fn c in
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            if cmp t.regs.(ra) t.regs.(rb) then target else next
      | _, Jmp target -> (
          match chain with
          | None ->
              fun ctx ->
                flush ctx.cpu pend_s dc di da;
                target
          | Some kont ->
              (* A chained loop-closing jump vanishes at compile time:
                 the next copy's first closure IS this jump's closure,
                 entered with the jump's counts still pending. *)
              kont dc di da pend_s)
      | _, Call target ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            Cpu.push_call t next;
            target
      | _, Callr rr ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            Cpu.push_call t next;
            t.regs.(rr)
      | _, Ret ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            if t.depth = 0 then begin
              t.pc <- pc;
              finish ctx Cpu.Halted
            end
            else begin
              t.depth <- t.depth - 1;
              t.callstack.(t.depth)
            end
      | _, Kcall id ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            (match ctx.env.kcall id t with
            | Cpu.K_ok -> next
            | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
            | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
      | _, Kcallr rr ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            (match ctx.env.kcall t.regs.(rr) t with
            | Cpu.K_ok -> next
            | Cpu.K_abort reason -> finish ctx (Cpu.Aborted reason)
            | Cpu.K_fault f -> finish ctx (Cpu.Faulted f))
      | _, Halt ->
          fun ctx ->
            let t : Cpu.t = ctx.cpu in
            flush t pend_s dc di da;
            t.pc <- pc;
            finish ctx Cpu.Halted
  in
  let c0, i0, a0, s0 = pend0 in
  comp start c0 i0 a0 s0

end

let compile_block = Fast_body.compile_block

(* -------------------------------------------------------------------- *)
(* Translation                                                           *)
(* -------------------------------------------------------------------- *)

let translate ?(costs = Costs.default) ?safe prog =
  let source = Array.copy prog in
  let prog = source in
  let n = Array.length prog in
  (* [safe.(pc)] licenses compiling the access at [pc] without fault
     handling. A map of the wrong length means the proof was derived from
     different code; ignore it rather than mis-align indices. *)
  let safe_at =
    match safe with
    | Some m when Array.length m = n -> fun pc -> Array.unsafe_get m pc
    | Some _ | None -> fun _ -> false
  in
  (* An out-of-range register number is impossible through the
     assembler, but [translate] is a public API. *)
  let regs_ok =
    Array.for_all
      (fun i ->
        List.for_all
          (fun r -> r >= 0 && r < Insn.num_regs)
          (Insn.registers_used i))
      prog
  in
  let leader = Array.make (max n 1) false in
  if n > 0 then leader.(0) <- true;
  Array.iteri
    (fun pc i ->
      (match (i : Insn.t) with
      | Br (_, _, _, target) | Jmp target | Call target ->
          if target >= 0 && target < n then leader.(target) <- true
      | _ -> ());
      (* A conditional branch falls through into its block (the body
         exits early when taken), so unlike the other terminators it
         does not force a leader at pc + 1. *)
      match (i : Insn.t) with
      | Br _ -> ()
      | i -> if terminates i && pc + 1 < n then leader.(pc + 1) <- true)
    prog;
  let fused = ref 0 in
  let elided = ref 0 in
  (* Fusion counts are kept for block-head tails only. *)
  let scrap = ref 0 in
  let nblocks = ref 0 in
  let slow =
    Array.init n (fun k ->
        compile_block ~costs ~safe_at prog ~start:k ~stop:(k + 1)
          ~fused:scrap ~elided:scrap)
  in
  let body_of_pc = Array.make n (fun ctx -> finish ctx Cpu.Halted) in
  let cost_of_pc = Array.make n 0 in
  let len_of_pc = Array.make n 0 in
  let exact_body = Array.make n [||] in
  let exact_cost = Array.make n [||] in
  (* A tail runs from its pc to the end of its basic block or for one
     default poll window, whichever is shorter. A longer tail could never
     pass the fast-entry poll check, and the cap bounds the quadratic
     cost of compiling every suffix to [default_poll_every * n]
     closures. *)
  let window = Cpu.default_poll_every in
  let ends pc =
    match (prog.(pc) : Insn.t) with
    | Br _ -> false (* extends through its fall-through *)
    | i -> terminates i
  in
  let pc = ref 0 in
  while !pc < n do
    let start = !pc in
    let j = ref start in
    while (not (ends !j)) && !j + 1 < n && not leader.(!j + 1) do
      incr j
    done;
    let bstop = !j + 1 in
    for k = start to bstop - 1 do
      let stop = min bstop (k + window) in
      let f = if k = start then fused else scrap in
      let e = if k = start then elided else scrap in
      body_of_pc.(k) <-
        compile_block ~costs ~safe_at prog ~start:k ~stop ~fused:f ~elided:e;
      len_of_pc.(k) <- stop - k;
      cost_of_pc.(k) <- sum_cost costs prog k stop
    done;
    incr nblocks;
    pc := bstop
  done;
  (* Unrolled self-loops, second pass (every tail is compiled by now). A
     head [h] whose full tail ends with [Jmp h] is a straight-line loop
     body. Every pc inside the loop gets one closure chain per possible
     remaining-window size (compiled when first dispatched), consuming
     exactly that many instructions:
     the rest of the current pass, whole copies of the body, and a
     prefix of the last pass cut at the window boundary — so a dispatch
     from any loop phase consumes its entire poll window in one hop.
     The copies are compiled back-to-front through the [chain]
     continuation, threading the pending accumulators across copy
     boundaries: each chained loop-closing jump dissolves into the next
     copy at compile time, and the whole window flushes once, at its
     end (or at whatever observable event — a taken guard, a fault —
     cuts it short, which flushes the carried pends first exactly as
     within a single block). [extra_back] extends an early exit's
     not-run count over the chained copies, keeping the driver's poll
     arithmetic exact. *)
  for h = 0 to n - 1 do
    let flen = len_of_pc.(h) in
    let stop = h + flen in
    if
      flen > 1
      &&
      match (prog.(stop - 1) : Insn.t) with
      | Jmp target -> target = h
      | _ -> false
    then begin
      (* As a jump target, [h] heads its basic block and the [Jmp] ends
         it, so the loop is exactly that block: every [k] in it has the
         tail [k, stop), and no other loop covers it. *)
      let lcost = cost_of_pc.(h) in
      (* [unroll start room pend]: a chain executing exactly [room]
         unrolled instructions from [start], entered with [pend]
         already accumulated. *)
      let rec unroll start room pend =
        let p = stop - start in
        if room <= p then
          compile_block ~costs ~safe_at ~pend0:pend prog ~start
            ~stop:(start + room) ~fused:scrap ~elided:scrap
        else
          compile_block ~costs ~safe_at ~pend0:pend
            ~chain:(fun c i a s -> unroll h (room - p) (c, i, a, s))
            ~extra_back:(room - p) prog ~start ~stop ~fused:scrap
            ~elided:scrap
      in
      for k = h to stop - 1 do
        let p = stop - k in
        let xb = Array.make (window + 1) body_of_pc.(k) in
        let xc = Array.make (window + 1) 0 in
        for room = 1 to window do
          (* Compiled on first dispatch: a run reaches only a few of the
             [window] chains per loop pc. Domains racing on one slot each
             compile an equivalent chain; the plain write publishes
             either, so dispatch needs no lock. *)
          xb.(room) <-
            (fun ctx ->
              let f = unroll k room (0, 0, 0, 0) in
              xb.(room) <- f;
              f ctx);
          xc.(room) <-
            (if room < p then sum_cost costs prog k (k + room)
             else
               let rest = room - p in
               cost_of_pc.(k) + (rest / flen * lcost)
               + sum_cost costs prog h (h + (rest mod flen)))
        done;
        exact_body.(k) <- xb;
        exact_cost.(k) <- xc
      done
    end
  done;
  {
    source;
    nblocks = !nblocks;
    fused = !fused;
    elided = !elided;
    body_of_pc;
    cost_of_pc;
    len_of_pc;
    exact_body;
    exact_cost;
    slow;
    regs_ok;
  }

(* -------------------------------------------------------------------- *)
(* Driver                                                                *)
(* -------------------------------------------------------------------- *)

(* The non-flushing sandboxed-access superinstructions assume every
   sandboxed address is a valid memory address, which holds exactly when
   the segment is well-formed (power-of-two size, aligned base — the
   {!Mem.segment} invariant, re-checked because the record type is open)
   and lies inside memory. Checked once per run; a cpu that fails gets
   the interpreter, which is trivially exact. *)
let seg_confined (cpu : Cpu.t) =
  let { Mem.base; size } = cpu.seg in
  size > 0
  && size land (size - 1) = 0
  && base >= 0
  && base land (size - 1) = 0
  && base + size <= Mem.size cpu.mem

(* One iteration per control transfer, replicating the interpreter's
   loop-head checks in its exact order: fuel, poll, pc bounds. [cpu.pc]
   is written only where it is observable — on every exit and before
   each careful step (compiled bodies store it themselves ahead of
   anything that can fault or call out). Any in-range pc has a fast
   tail, so resuming mid-block (after a poll reset or a refueled slice)
   stays on the fast path; the bounds check above makes the unsafe array
   reads safe. Top-level functions rather than closures so entering
   costs no allocation. *)
let rec drive t ctx len poll_every pc since_poll =
  let cpu = ctx.cpu in
  if cpu.Cpu.cycles > cpu.fuel then begin
    cpu.pc <- pc;
    Cpu.Out_of_fuel
  end
  else if since_poll >= poll_every then begin
    cpu.pc <- pc;
    match ctx.env.Cpu.poll () with
    | Some reason -> Cpu.Aborted reason
    | None -> drive t ctx len poll_every pc 0
  end
  else if pc < 0 || pc >= len then begin
    cpu.pc <- pc;
    Cpu.Faulted (Cpu.Bad_pc pc)
  end
  else
    let xb = Array.unsafe_get t.exact_body pc in
    if Array.length xb > 0 then begin
      (* Inside a straight-line self-loop: consume the whole remaining
         poll window in one dispatch — the rest of this pass, chained
         whole iterations, and a compiled prefix of the final pass cut
         exactly at the window boundary. The pending counts thread
         across the chained copies and flush once, at the window's end
         (or at whatever observable event cuts it short). *)
      let room = poll_every - since_poll in
      let ri =
        if room > Cpu.default_poll_every then Cpu.default_poll_every else room
      in
      if
        cpu.cycles + Array.unsafe_get (Array.unsafe_get t.exact_cost pc) ri
        <= cpu.fuel
      then
        let pc' = Array.unsafe_get xb ri ctx in
        landed t ctx len poll_every pc' (since_poll + ri)
      else step t ctx len poll_every pc since_poll
    end
    else
      let walked = since_poll + Array.unsafe_get t.len_of_pc pc in
      if
        walked <= poll_every
        && cpu.cycles + Array.unsafe_get t.cost_of_pc pc <= cpu.fuel
      then
        let pc' = Array.unsafe_get t.body_of_pc pc ctx in
        landed t ctx len poll_every pc' walked
      else step t ctx len poll_every pc since_poll

(* After a compiled segment, [walked] counts all of its instructions; a
   conditional branch taken inside it reports in [ctx.back] how many did
   not run. *)
and landed t ctx len poll_every pc walked =
  if ctx.fin then ctx.out
  else if ctx.back = 0 then drive t ctx len poll_every pc walked
  else begin
    let w = walked - ctx.back in
    ctx.back <- 0;
    drive t ctx len poll_every pc w
  end

(* The careful path: one interpreter-exact step, taken when the tail
   cannot fit the remaining poll window or fuel. Stepping lands a poll
   point on the exact instruction the interpreter polls at, and stops
   [Out_of_fuel] on the exact instruction whose charge overshoots the
   budget. *)
and step t ctx len poll_every pc since_poll =
  ctx.cpu.Cpu.pc <- pc;
  let pc' = Array.unsafe_get t.slow pc ctx in
  if ctx.fin then ctx.out else drive t ctx len poll_every pc' (since_poll + 1)

(* Context recycling: invocations are the hot unit of work, so the
   driver context comes from a per-domain free stack instead of the
   minor heap. A stack, not a single slot, because kernel calls can
   re-enter [run] (graft invoking graft). Parked contexts drop their
   cpu/env so a pooled record never retains a finished machine. *)
type ctx_pool = { mutable free : ctx array; mutable n : int }

let parked_cpu =
  Cpu.make ~mem:(Mem.create 1) ~seg:(Mem.segment ~base:0 ~size:1) ()

let ctx_pool_key : ctx_pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { free = [||]; n = 0 })

let take_ctx pool cpu env =
  if pool.n = 0 then { cpu; env; fin = false; out = Cpu.Halted; back = 0 }
  else begin
    pool.n <- pool.n - 1;
    let c = pool.free.(pool.n) in
    c.cpu <- cpu;
    c.env <- env;
    c.fin <- false;
    c.back <- 0;
    c
  end

let give_ctx pool c =
  c.cpu <- parked_cpu;
  c.env <- Cpu.env_trusted;
  c.out <- Cpu.Halted;
  if pool.n >= Array.length pool.free then begin
    let bigger = Array.make (max 4 (2 * pool.n)) c in
    Array.blit pool.free 0 bigger 0 pool.n;
    pool.free <- bigger
  end;
  pool.free.(pool.n) <- c;
  pool.n <- pool.n + 1

let run ?(poll_every = Cpu.default_poll_every) env (cpu : Cpu.t) t =
  (* Checked mode is the interpreted-extension measurement model: its
     per-access check cost is the interpretation price, so it must keep
     being interpreted. *)
  if cpu.checked || (not t.regs_ok) || not (seg_confined cpu) then
    Cpu.run ~poll_every env cpu t.source
  else begin
    let pool = Domain.DLS.get ctx_pool_key in
    let ctx = take_ctx pool cpu env in
    let out =
      match drive t ctx (Array.length t.source) poll_every cpu.pc 0 with
      | o -> o
      | exception Cpu.Fault_exn f -> Cpu.Faulted f
      | exception Mem.Fault { addr; write } ->
          Cpu.Faulted (Cpu.Memory_fault { addr; write })
    in
    give_ctx pool ctx;
    out
  end
