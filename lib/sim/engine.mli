(** Discrete-event simulation engine: the machine-dependent substrate.

    The engine plays the role the NetBSD locore/pmap layer plays for VINO:
    it provides a virtual clock (in cycles at {!Vino_vm.Costs.mhz}),
    preemptible kernel threads (cooperative coroutines implemented with
    OCaml effects), and schedulable timeouts. All kernel subsystems — the
    lock manager, the page daemon, the disk — are processes on this engine,
    so lock timeouts, graft CPU quotas and I/O latencies all interleave in
    one deterministic timeline.

    Simultaneous events execute in FIFO spawn/schedule order, which makes
    every experiment reproducible. *)

type t

type cancel = unit -> unit
(** Cancel a scheduled event; idempotent. *)

exception Stopped
(** Raised inside a process killed with {!kill}. *)

val create : unit -> t

val now : t -> int
(** Current virtual time in cycles. *)

val now_us : t -> float

val at : t -> int -> (unit -> unit) -> cancel
(** [at t time f] runs [f] at absolute virtual [time] (>= [now]). *)

val after : t -> int -> (unit -> unit) -> cancel

val at_each : t -> count:int -> (int -> int) -> (int -> unit) -> unit
(** [at_each t ~count time f] runs [f i] at virtual time [time i] for
    every [i] in [\[0, count)], in the order [count] calls to {!at}
    made now would run them, ties with every other event included. The
    [count] insertion sequence numbers are reserved up front but only
    the next pending event is queued, so a long open-loop arrival
    stream costs one heap entry, not [count]. [time] is evaluated once
    per [i], before this returns. The chain cannot be cancelled.
    @raise Invalid_argument if [count] is negative, [time 0] is before
    {!now}, or [time] decreases. *)

type proc
(** Handle on a spawned process. *)

val spawn : t -> ?name:string -> (unit -> unit) -> proc
(** Create a process; its body starts when the engine reaches the current
    time slot. Inside the body, {!delay}, {!suspend} and {!self} may be
    used. An uncaught exception in the body is recorded (see {!failures}). *)

val proc_name : proc -> string
val proc_id : proc -> int
val alive : proc -> bool

val kill : t -> proc -> unit
(** Make the process raise {!Stopped} at its next suspension point (if it is
    blocked, it is woken immediately). A crude mechanism; transaction abort
    (the paper's mechanism) is layered above in {!Vino_txn.Txn}. *)

(* Within a process: *)

val delay : int -> unit
(** Advance this process's virtual time by the given number of cycles. *)

val yield : unit -> unit
(** Re-enqueue at the current time behind already-pending events. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend f] blocks the calling process. [f waker] is called immediately;
    the process resumes with [v] when some other event calls [waker v].
    Calling the waker more than once is harmless (later calls are ignored),
    which lets a timeout and a signal race safely. *)

val self : unit -> proc

val run : ?until:int -> t -> unit
(** Execute events in time order until the queue drains (or [until] is
    passed). Returns normally even if processes remain blocked (deadlock);
    use {!blocked} to detect that. *)

val step : t -> bool
(** Execute the single earliest event; [false] if the queue was empty. *)

val failures : t -> (string * exn) list
(** Processes that died with an uncaught exception, oldest first. *)

val has_run : t -> bool
(** Whether {!step} has ever executed an event on this engine. *)

type snap
(** Captured pre-run engine state: clock, process table, and the pending
    event queue with each entry's insertion sequence number and the
    sequence counter itself (so pending {!at_each} chains keep their
    reserved places). *)

val snapshot : t -> snap
(** Capture a never-run engine. Raises [Invalid_argument] once {!step}
    has executed any event — after that, parked one-shot continuations
    may sit in the queue and cannot be forked. Before the first step the
    queue holds only re-runnable spawn/timer thunks, so the capture is a
    faithful fork point. *)

val restore : t -> snap -> unit
(** Rewind the engine to the snapshot: clock, processes (flags reset)
    and event queue are restored; the engine may then {!run} again.
    Safe to call repeatedly with the same snapshot. *)

val blocked : t -> string list
(** Names of processes that are alive but have no pending event — after
    {!run} drains the queue these are deadlocked. *)
