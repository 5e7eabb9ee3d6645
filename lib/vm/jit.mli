(** Closure-threaded translation of graft programs.

    {!Cpu.run} is a switch-dispatch interpreter: every instruction
    re-matches its constructor, re-looks-up its cycle cost and re-checks
    fuel and the abort poll. [translate] does all of that once, at link
    time: the program is decomposed into basic blocks, each instruction
    becomes a pre-resolved OCaml closure (direct threading), MiSFIT and
    proof-carrying access groups and whole transform-loop passes are
    fused into superinstructions, and the fuel/poll checks are hoisted to
    block boundaries.

    The translation is {b bit-identical} to the interpreter at every
    observable point: [cycles], [insns_executed], [mem_accesses],
    [sandbox_cycles], [checkcall_cycles], registers, memory, [pc], the
    call stack and the final {!Cpu.outcome} all match {!Cpu.run} exactly —
    including mid-slice [Out_of_fuel] (the wrapper refuels and resumes at
    an arbitrary program counter) and abort-poll delivery within
    [poll_every] instructions. A block executes on the fast path only when
    its statically-known cost provably cannot cross the fuel limit or a
    poll point; otherwise execution advances one instruction at a time
    through one-instruction tails built by the same compiler. See
    DESIGN.md §11 for the equivalence argument. *)

type t
(** A translated program. Immutable; safe to reuse across invocations and
    to cache per kernel keyed by graft signature. *)

type mode = Interp | Translated

val default_mode : mode ref
(** Execution mode newly created kernels pick up ([Translated] unless the
    CLI's [--mode interp] flag says otherwise). *)

val translate : ?costs:Costs.t -> ?safe:bool array -> Insn.t array -> t
(** Compile a validated program against a cost table. [costs] must equal
    the table the executing {!Cpu.t} was created with, or cycle accounting
    diverges from the interpreter. Every pc gets a compiled tail running
    to the end of its basic block or for {!Cpu.default_poll_every}
    instructions, whichever is shorter.

    [safe] is a per-pc proof map (one entry per instruction): [true] at a
    [Ld]/[St] asserts a static verifier proved the access in-segment for
    the running configuration, so it can never fault. Such accesses are
    compiled as bare superinstructions — straight-line closures with no
    counter flush or pc store, like [Mov] — and fuse with the
    non-faulting ALU ops around them. Observable equivalence with the
    interpreter is preserved because a flush only becomes visible at a
    fault, kernel call, poll or block exit, and by assumption no elided
    access can fault. The caller is responsible for the map's soundness
    (the linker re-validates the proof's assumptions before passing it);
    a map whose length does not match the program is ignored. *)

val run : ?poll_every:int -> Cpu.env -> Cpu.t -> t -> Cpu.outcome
(** Drop-in replacement for [Cpu.run env cpu (source t)]; [poll_every]
    defaults to {!Cpu.default_poll_every}. Starts from the
    cpu's current [pc] (0 on a fresh cpu; wherever the previous slice
    stopped after a refuel). Three cases run on {!Cpu.run} instead:
    - a checked-mode cpu: per-access bounds checking is the
      interpretation model the paper compares against, so translating it
      away would be measurement fraud;
    - a cpu whose segment is malformed or not contained in its memory
      (the sandboxed-access superinstructions assume confinement; see
      DESIGN.md §11);
    - a program naming a register outside [0, Insn.num_regs) (compiled
      bodies index the register file unchecked).

    Allocation-free in steady state on the translated path: the driver
    context is recycled through a per-domain pool, so a translated
    invocation that neither faults nor aborts performs zero minor-heap
    allocations (the [bench/wall.ml --check] allocation gate). *)

val source : t -> Insn.t array
(** The program the translation was built from. *)

(* Translation statistics, for [vino inspect]. *)

val block_count : t -> int

val fused_insns : t -> int
(** Instructions absorbed into a preceding superinstruction: a fused
    group of [n] instructions counts [n - 1]. Counted over each basic
    block's head tail. *)

val elided_accesses : t -> int
(** Accesses compiled bare (non-flushing) under a proof map. *)
