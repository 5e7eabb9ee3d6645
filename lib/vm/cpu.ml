type fault =
  | Memory_fault of { addr : int; write : bool }
  | Division_by_zero
  | Bad_pc of int
  | Bad_call_target of int
  | Bad_kcall of int
  | Call_stack_overflow
  | Call_stack_underflow

type outcome = Halted | Faulted of fault | Out_of_fuel | Aborted of string

type t = {
  regs : int array;
  mem : Mem.t;
  seg : Mem.segment;
  costs : Costs.t;
  checked : bool;
  check_access_cost : int;
  mutable fuel : int;
  mutable pc : int;
  mutable cycles : int;
  mutable callstack : int array;
  mutable depth : int;
  mutable insns : int;
  mutable accesses : int;
  mutable sandbox_cy : int;
  mutable checkcall_cy : int;
}

type kstatus = K_ok | K_abort of string | K_fault of fault

type env = {
  kcall : int -> t -> kstatus;
  call_ok : int -> bool;
  poll : unit -> string option;
}

let env_trusted =
  {
    kcall = (fun id _ -> K_fault (Bad_kcall id));
    call_ok = (fun _ -> true);
    poll = (fun () -> None);
  }

let max_call_depth = 4096

let default_check_access_cost = 20

let make ~mem ~seg ?(costs = Costs.default) ?(checked = false)
    ?(check_access_cost = default_check_access_cost) ?(fuel = max_int) () =
  let t =
    {
      regs = Array.make Insn.num_regs 0;
      mem;
      seg;
      costs;
      checked;
      check_access_cost;
      fuel;
      pc = 0;
      cycles = 0;
      callstack = [||];
      depth = 0;
      insns = 0;
      accesses = 0;
      sandbox_cy = 0;
      checkcall_cy = 0;
    }
  in
  t.regs.(Insn.sp) <- seg.Mem.base + seg.Mem.size;
  t

(* Rewind to the state [make] would produce, without allocating: the
   invoke hot path recycles one cpu per (graft, path) instead of churning
   a fresh record + register file per invocation. *)
let reset ?(fuel = max_int) t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  t.regs.(Insn.sp) <- t.seg.Mem.base + t.seg.Mem.size;
  t.fuel <- fuel;
  t.pc <- 0;
  t.cycles <- 0;
  t.depth <- 0;
  t.insns <- 0;
  t.accesses <- 0;
  t.sandbox_cy <- 0;
  t.checkcall_cy <- 0

let reg t r = t.regs.(r)
let set_reg t r v = t.regs.(r) <- v
let cycles t = t.cycles
let charge t n = t.cycles <- t.cycles + n
let insns_executed t = t.insns
let refuel t extra = t.fuel <- t.cycles + extra
let fuel_left t = max 0 (t.fuel - t.cycles)
let mem_accesses t = t.accesses
let sandbox_cycles t = t.sandbox_cy
let checkcall_cycles t = t.checkcall_cy
let mem t = t.mem
let segment t = t.seg

(* Internal control signal for one instruction step. *)
type step = Next | Goto of int | Stop of outcome

exception Fault_exn of fault

(* The call stack is a preallocated int array indexed by [depth] — an
   [int list] would cons one cell per [Call], which the zero-allocation
   invoke path (bench/wall.ml --check) forbids. The array grows by
   doubling on first use and is retained across [reset], so after warmup
   pushes never allocate; entries above [depth] are stale garbage. *)
let push_call t ret =
  if t.depth >= max_call_depth then raise (Fault_exn Call_stack_overflow);
  if t.depth >= Array.length t.callstack then begin
    let grown = Array.make (max 16 (2 * Array.length t.callstack)) 0 in
    Array.blit t.callstack 0 grown 0 t.depth;
    t.callstack <- grown
  end;
  t.callstack.(t.depth) <- ret;
  t.depth <- t.depth + 1

(* Top-of-stack-first, matching what the old list representation held. *)
let call_stack t = List.init t.depth (fun i -> t.callstack.(t.depth - 1 - i))

(* In checked mode every access is bounds-checked against the segment by
   the execution environment itself — the "interpreted extension" model of
   the paper's related work — at a per-access interpretation cost. *)
let guard t ~write addr =
  if t.checked then begin
    t.cycles <- t.cycles + t.check_access_cost;
    if not (Mem.in_segment t.seg addr) then
      raise (Fault_exn (Memory_fault { addr; write }))
  end;
  addr

let step env t (i : Insn.t) : step =
  let r = t.regs in
  match i with
  | Li (rd, v) ->
      r.(rd) <- v;
      Next
  | Mov (rd, rs) ->
      r.(rd) <- r.(rs);
      Next
  | Alu (op, rd, ra, rb) ->
      let v =
        try Insn.eval_alu op r.(ra) r.(rb)
        with Division_by_zero -> raise (Fault_exn Division_by_zero)
      in
      r.(rd) <- v;
      Next
  | Alui (op, rd, ra, imm) ->
      let v =
        try Insn.eval_alu op r.(ra) imm
        with Division_by_zero -> raise (Fault_exn Division_by_zero)
      in
      r.(rd) <- v;
      Next
  | Ld (rd, rb, off) ->
      t.accesses <- t.accesses + 1;
      r.(rd) <- Mem.load t.mem (guard t ~write:false (r.(rb) + off));
      Next
  | St (rv, rb, off) ->
      t.accesses <- t.accesses + 1;
      Mem.store t.mem (guard t ~write:true (r.(rb) + off)) r.(rv);
      Next
  | Br (c, ra, rb, target) ->
      if Insn.eval_cond c r.(ra) r.(rb) then Goto target else Next
  | Jmp target -> Goto target
  | Call target ->
      push_call t (t.pc + 1);
      Goto target
  | Callr rr ->
      push_call t (t.pc + 1);
      Goto r.(rr)
  | Ret ->
      if t.depth = 0 then Stop Halted
        (* top-level return: graft entry completed *)
      else begin
        t.depth <- t.depth - 1;
        Goto t.callstack.(t.depth)
      end
  | Kcall id -> (
      match env.kcall id t with
      | K_ok -> Next
      | K_abort reason -> Stop (Aborted reason)
      | K_fault f -> Stop (Faulted f))
  | Kcallr rr -> (
      match env.kcall r.(rr) t with
      | K_ok -> Next
      | K_abort reason -> Stop (Aborted reason)
      | K_fault f -> Stop (Faulted f))
  | Push rv ->
      t.accesses <- t.accesses + 1;
      r.(Insn.sp) <- r.(Insn.sp) - 1;
      Mem.store t.mem (guard t ~write:true r.(Insn.sp)) r.(rv);
      Next
  | Pop rd ->
      t.accesses <- t.accesses + 1;
      r.(rd) <- Mem.load t.mem (guard t ~write:false r.(Insn.sp));
      r.(Insn.sp) <- r.(Insn.sp) + 1;
      Next
  | Sandbox rr ->
      r.(rr) <- Mem.sandbox t.seg r.(rr);
      Next
  | Checkcall rr ->
      if env.call_ok r.(rr) then Next
      else raise (Fault_exn (Bad_call_target r.(rr)))
  | Halt -> Stop Halted

let default_poll_every = 32

let run ?(poll_every = default_poll_every) env t prog =
  let len = Array.length prog in
  let rec loop since_poll =
    if t.cycles > t.fuel then Out_of_fuel
    else if since_poll >= poll_every then
      match env.poll () with
      | Some reason -> Aborted reason
      | None -> loop 0
    else if t.pc < 0 || t.pc >= len then Faulted (Bad_pc t.pc)
    else
      let i = prog.(t.pc) in
      t.insns <- t.insns + 1;
      let cost = Costs.insn t.costs i in
      t.cycles <- t.cycles + cost;
      (* split out the SFI overhead so the observability layer can
         attribute sandbox cycles within an invocation *)
      (match i with
      | Insn.Sandbox _ -> t.sandbox_cy <- t.sandbox_cy + cost
      | Insn.Checkcall _ -> t.checkcall_cy <- t.checkcall_cy + cost
      | _ -> ());
      match step env t i with
      | Next ->
          t.pc <- t.pc + 1;
          loop (since_poll + 1)
      | Goto target ->
          t.pc <- target;
          loop (since_poll + 1)
      | Stop o -> o
      | exception Fault_exn f -> Faulted f
      | exception Mem.Fault { addr; write } ->
          Faulted (Memory_fault { addr; write })
  in
  loop 0

let pp_fault ppf = function
  | Memory_fault { addr; write } ->
      Format.fprintf ppf "memory fault (%s addr %d)"
        (if write then "store to" else "load from")
        addr
  | Division_by_zero -> Format.fprintf ppf "division by zero"
  | Bad_pc pc -> Format.fprintf ppf "control transfer outside program (%d)" pc
  | Bad_call_target id ->
      Format.fprintf ppf "indirect call to non-callable id %d" id
  | Bad_kcall id -> Format.fprintf ppf "kernel call to unknown id %d" id
  | Call_stack_overflow -> Format.fprintf ppf "call stack overflow"
  | Call_stack_underflow -> Format.fprintf ppf "call stack underflow"

let pp_outcome ppf = function
  | Halted -> Format.fprintf ppf "halted"
  | Faulted f -> Format.fprintf ppf "faulted: %a" pp_fault f
  | Out_of_fuel -> Format.fprintf ppf "out of fuel"
  | Aborted reason -> Format.fprintf ppf "aborted: %s" reason
