(** Sliced, transactional execution of graft code.

    The wrapper runs a graft invocation on the graft VM in preemptible
    slices: after each slice the consumed cycles are charged to the virtual
    clock (so lock time-outs, watchdogs and other kernel activity interleave
    with graft execution exactly as a preemptible kernel interleaves with a
    running thread), and the transaction's abort flag is polled. An
    invocation also carries a total CPU budget, beyond which it is cut off
    like any runaway thread (Rule 1/2). *)

val env :
  ?flow:Vino_verify.Kflow.table ->
  Kernel.t ->
  txn:Vino_txn.Txn.t option ->
  cred:Cred.t ->
  limits:Vino_txn.Rlimit.t ->
  Vino_vm.Cpu.env
(** The kernel-call/checkcall/poll environment a graft executes under. The
    dispatcher refuses ids that are absent or not graft-callable; [call_ok]
    probes the runtime call table.

    With [flow], every dispatch is first checked against the kcall-flow
    transition table — an O(1) row/bit test charged at
    [vm_costs.flow_check] — and an out-of-graph transition aborts the
    invocation's transaction ([K_abort]) before the target function runs,
    bumping [kflow.violations] and the audit trail. The "last kcall" state
    lives in the environment, so one [env] spans one graft invocation
    (slices included) in either execution mode. *)

val default_slice : int
val default_budget : int

val exec :
  Kernel.t ->
  txn:Vino_txn.Txn.t ->
  cred:Cred.t ->
  limits:Vino_txn.Rlimit.t ->
  seg:Vino_vm.Mem.segment ->
  code:Vino_vm.Insn.t array ->
  flow:Vino_verify.Kflow.table ->
  trans:Vino_vm.Jit.t ->
  ?slice:int ->
  ?budget:int ->
  setup:(Vino_vm.Cpu.t -> unit) ->
  unit ->
  Vino_vm.Cpu.t * Vino_vm.Cpu.outcome
(** Must run inside an engine process. Advances the virtual clock by every
    cycle the graft consumes.

    The kernel's [exec_mode] selects the step function: [Translated] runs
    [trans], the closure-threaded translation of [code]; [Interp]
    interprets [code]. Both produce bit-identical cpu state and outcomes.

    [flow] is the graft's kcall-flow table; it is enforced only when the
    kernel's [flow_enforce] is set, and [Kernel.flow_pin] (an attested
    graph) overrides it. Both step functions dispatch kernel calls through
    the same environment closure, so enforcement is identical in interp
    and translated modes. *)
