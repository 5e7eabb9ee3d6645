(** Manual composition of the measured graft paths.

    {!Vino_core.Graft_point} implements the production behaviour (abort ⇒
    forcibly remove the graft, fall back to the default), which is wrong
    for measurement: the Abort path must abort the same graft thousands of
    times. The rig loads a graft once and exposes one invocation with an
    explicit commit/abort decision, mirroring Table 2's path definitions
    component by component. *)

type t = {
  kernel : Vino_core.Kernel.t;
  loaded : Vino_core.Linker.loaded;
  cred : Vino_core.Cred.t;
  limits : Vino_txn.Rlimit.t;
}

val load : Vino_core.Kernel.t -> words:int -> Vino_misfit.Image.t -> t
(** @raise Failure on a linker error. *)

val seg_base : t -> int
(** Base address of the graft segment (for writing shared data). *)

type outcome = Committed | Rolled_back | Failed of string

val run :
  t ->
  ?indirection:int ->
  ?check_cost:int ->
  ?setup:(Vino_vm.Cpu.t -> unit) ->
  ?check:(Vino_vm.Cpu.t -> bool) ->
  commit:bool ->
  unit ->
  outcome
(** One transactional graft invocation: charge the indirection, begin a
    transaction, execute under SFI, charge result checking and validate,
    then commit or deliberately abort. Must run inside an engine
    process. *)

val run_exn : t -> ?setup:(Vino_vm.Cpu.t -> unit) -> commit:bool -> unit -> unit
(** Like {!run} but raises [Failure] unless the invocation reached its
    commit/abort decision. *)

val time_abort :
  t ->
  ?iterations:int ->
  ?indirection:int ->
  ?check_cost:int ->
  ?before:(int -> unit) ->
  setup:(Vino_vm.Cpu.t -> unit) ->
  unit ->
  float
(** Table 7's abort cost: {!Probe.samples} [iterations] deliberately
    aborted {!run}s (passing [indirection], [check_cost] and [setup]),
    timing each from its validation check to the end of the rollback,
    and return the trimmed mean in microseconds. [before k] runs ahead
    of iteration [k] (warmup included).
    @raise Failure unless every invocation rolls back. *)

val path_table :
  ?pool:Vino_par.Pool.t ->
  measure:(Path.t -> float) ->
  paper_elapsed:(Path.t * float) list ->
  ?indirection:float ->
  txn:string * float ->
  graft:string * float ->
  misfit:float ->
  abort:float ->
  unit ->
  Table.row list
(** The Figure-3 ladder shared by Tables 3-6: one elapsed row per
    {!Path.t} in {!Path.all} order, each preceded by its incremental cost
    over the step below. [measure] gives a path's elapsed microseconds and
    [paper_elapsed] the paper's elapsed values. The increments take the
    paper's value; [txn] (Vino to Null) and [graft] (Null to Unsafe) also
    take their label. Without [indirection] the Base-to-Vino increment is
    left out (Table 6 has none). The Verified and FlowChecked increments
    are ours and carry no paper value. With [?pool], the per-path
    measurements fan out across domains; rows are identical at any pool
    size. *)
