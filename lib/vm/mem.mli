(** Word-addressed simulated physical memory and graft segments.

    The kernel owns one flat memory; every loaded graft is assigned a
    power-of-two sized {!segment} of it (its heap, stack and any shared
    buffers the kernel maps in). MiSFIT's [Sandbox] instruction forces an
    address into the segment with one mask and one or — the classic
    Wahbe-style sandboxing the paper uses — so a rewritten graft can fault
    on neither loads nor stores outside its segment. *)

type t

type segment = { base : int; size : int }
(** [size] must be a power of two and [base] a multiple of [size], so that
    [base lor (addr land (size-1))] always lands inside the segment. *)

exception Fault of { addr : int; write : bool }
(** Raised on an out-of-memory-bounds access (an un-sandboxed wild access). *)

val create : int -> t
(** [create words] returns a zeroed memory of [words] words: the
    calling domain's spare from {!release} when it has that size,
    otherwise a fresh allocation. *)

val release : t -> unit
(** [release t] makes [t] the calling domain's spare, to be zeroed and
    handed out by the next {!create} of its size (one spare per domain;
    a later release replaces an unclaimed one). Only for an owner that
    knows nothing will read or write [t] again: a released memory that
    is still in use aliases the next machine built on this domain. *)

val size : t -> int
val load : t -> int -> int
val store : t -> int -> int -> unit

val unsafe_load : t -> int -> int
val unsafe_store : t -> int -> int -> unit
(** Unchecked accesses for callers that can prove the address in bounds.
    {!Jit} uses them for sandboxed accesses after validating once per run
    that the segment lies inside memory: [sandbox] confines the address
    to the segment, so the bounds proof is structural, not trusted. *)

val segment : base:int -> size:int -> segment
(** @raise Invalid_argument if the alignment/power-of-two invariant fails. *)

val in_segment : segment -> int -> bool

val sandbox : segment -> int -> int
(** [sandbox seg addr] is [seg.base lor (addr land (seg.size - 1))]: the
    address a MiSFIT-rewritten access actually uses. *)

val blit_in : t -> int -> int array -> unit
(** [blit_in mem addr src] copies [src] into memory starting at [addr].
    Atomic: the whole range is validated before any word is written, so a
    faulting blit leaves memory untouched. *)

val blit_out : t -> int -> int -> int array
(** [blit_out mem addr len] copies [len] words starting at [addr]. The
    range is validated up front. *)

val fill : t -> int -> int -> int -> unit
(** [fill mem addr len v] stores [v] into [len] words from [addr].
    Atomic, like {!blit_in}. *)
