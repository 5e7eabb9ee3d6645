(** Binary min-heap used as the simulation event queue.

    Entries are ordered by [key] (virtual time) and, for equal keys, by
    insertion sequence — so simultaneous events run in FIFO order and the
    simulation is deterministic. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val length : 'a t -> int

val add : 'a t -> key:int -> 'a -> unit

val reserve : 'a t -> int -> int
(** [reserve t n] claims the next [n] insertion sequence numbers and
    returns the first; [n] later {!add_seq}s under [first .. first+n-1]
    pop exactly as [n] {!add}s made now would have. [reserve t 0]
    returns the next sequence number without claiming it.
    @raise Invalid_argument on a negative [n]. *)

val add_seq : 'a t -> key:int -> seq:int -> 'a -> unit
(** Insert under a sequence number obtained from {!reserve} (or read
    back from {!entries}). Each number must be used at most once. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum entry as [(key, value)]. *)

val peek_key : 'a t -> int option

val clear : 'a t -> unit
(** Empty the queue and reset the insertion sequence to zero, as if
    freshly [create]d. *)

val entries : 'a t -> (int * int * 'a) list
(** Live entries as [(key, seq, value)] in sequence order. Re-inserting
    them with {!add_seq} into a [clear]ed queue whose sequence has been
    re-advanced with {!reserve} reproduces the original pop order
    exactly: pop order depends only on the set of (key, seq) pairs,
    never on heap layout. *)
