(** Interpreter for graft programs.

    The CPU executes one graft invocation at a time on behalf of a kernel
    thread. It charges virtual cycles per instruction ({!Costs}), enforces a
    fuel limit (the CPU quota the kernel grants the invocation), and polls an
    abort flag so that the transaction manager can asynchronously kill a
    misbehaving graft (paper §2.2: grafts must be preemptible). *)

type fault =
  | Memory_fault of { addr : int; write : bool }
      (** wild access outside physical memory (un-sandboxed code only) *)
  | Division_by_zero
  | Bad_pc of int  (** control transferred outside the program *)
  | Bad_call_target of int  (** [Checkcall] found a non-callable id *)
  | Bad_kcall of int  (** kernel dispatcher rejected the function id *)
  | Call_stack_overflow
  | Call_stack_underflow

type outcome =
  | Halted  (** normal completion; result in register 0 *)
  | Faulted of fault
  | Out_of_fuel  (** CPU quota exhausted *)
  | Aborted of string  (** asynchronous abort observed at a poll point *)

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
      (** Preallocated return-address stack; only the first [depth]
          entries are live. Push through {!push_call} — it grows the
          array and enforces {!max_call_depth}. *)
  mutable depth : int;
  mutable insns : int;
  mutable accesses : int;
  mutable sandbox_cy : int;
  mutable checkcall_cy : int;
}
(** Mutable per-invocation machine state. The record is concrete so that
    {!Jit} can compile closures that update it directly; everything else
    should go through the accessors below, which define the stable API. *)

type kstatus =
  | K_ok
  | K_abort of string  (** kernel function decided to abort the transaction *)
  | K_fault of fault

type env = {
  kcall : int -> t -> kstatus;  (** graft-callable function dispatcher *)
  call_ok : int -> bool;  (** runtime predicate behind [Checkcall] *)
  poll : unit -> string option;  (** asynchronous abort request, if any *)
}

val env_trusted : env
(** An environment with no kernel calls, permissive [Checkcall] and no abort
    source; used by unit tests and baseline measurements. *)

exception Fault_exn of fault
(** Raised internally by instruction implementations; {!run} (and
    {!Jit.run}) turn it into [Faulted]. Exposed so the translator can
    reproduce fault behaviour exactly. *)

val max_call_depth : int
val default_check_access_cost : int

val push_call : t -> int -> unit
(** Push a return address, growing the stack array if needed (amortised
    allocation-free: the array is retained across {!reset}).
    @raise Fault_exn on {!max_call_depth} overflow. *)

val call_stack : t -> int list
(** The live return addresses, most recent first. For tests and
    debugging; the hot path never materialises this list. *)

val make :
  mem:Mem.t ->
  seg:Mem.segment ->
  ?costs:Costs.t ->
  ?checked:bool ->
  ?check_access_cost:int ->
  ?fuel:int ->
  unit ->
  t
(** [fuel] is the cycle budget for the invocation (default: unlimited). The
    stack pointer starts at the top of the segment.

    [checked] selects the interpreted-extension execution model the paper's
    related work compares against (§5, [16]): the environment bounds-checks
    every access against the segment (faulting instead of sandboxing) and
    charges [check_access_cost] cycles per access — safety through
    interpretation, at interpretation prices. Off by default (MiSFIT-style
    protection is the paper's mechanism). *)

val reset : ?fuel:int -> t -> unit
(** Rewind to the state {!make} would produce (zeroed registers and
    counters, stack pointer at the top of the segment, pc 0) without
    allocating, so a hot loop can recycle one cpu across invocations.
    [fuel] defaults to unlimited, like {!make}. *)

val default_poll_every : int
(** The instruction interval between abort-flag polls that {!run} and
    {!Jit.run} use unless told otherwise (32). *)

val run : ?poll_every:int -> env -> t -> Insn.t array -> outcome
(** Execute from instruction 0 until an {!outcome} is reached. [poll_every]
    (default {!default_poll_every}) is the instruction interval between
    abort-flag polls — the preemption granularity. *)

val reg : t -> int -> int
val set_reg : t -> int -> int -> unit

val cycles : t -> int
(** Virtual cycles consumed so far by this invocation. *)

val charge : t -> int -> unit
(** Charge extra cycles (used by kernel functions invoked via [Kcall] to
    bill their own work against the graft invocation). *)

val refuel : t -> int -> unit
(** [refuel t n] grants [n] more cycles from the current consumption point;
    the invocation wrapper uses this to execute grafts in preemptible
    slices. *)

val fuel_left : t -> int

val insns_executed : t -> int
val mem_accesses : t -> int

val sandbox_cycles : t -> int
(** Cycles charged to [Sandbox] instructions so far — the part of
    {!cycles} that is MiSFIT address-sandboxing overhead. *)

val checkcall_cycles : t -> int
(** Cycles charged to [Checkcall] instructions so far. *)

val mem : t -> Mem.t
val segment : t -> Mem.segment
val pp_fault : Format.formatter -> fault -> unit
val pp_outcome : Format.formatter -> outcome -> unit
