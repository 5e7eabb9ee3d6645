(** The registry of the evaluation's tables: the one list both drivers
    ([bench/main.exe] and [vino tables]) read, so a table has one name,
    one title and one set of notes wherever it is printed. *)

type entry = {
  name : string;  (** command name, and [BENCH_<name>.json] when gated *)
  title : string;
  gated : bool;
      (** written by [bench/main.exe quick --json] and checked by
          [bench/gate.exe] against [bench/baseline.json] *)
  notes : ?iterations:int -> unit -> string option;
      (** printed under the table; computed for Table 4 (the agreement
          case) and the abort model (the time-out latency bounds) *)
  rows : ?iterations:int -> ?pool:Vino_par.Pool.t -> unit -> Table.row list;
      (** [iterations] samples per measurement (each harness's default
          when omitted); entries that are not sampled ignore it *)
}

val all : entry list
(** Tables 3-7, disaster, serve, abortmodel, lockfactor, calibrate: the
    gated entries first, in gate order. *)

val gated : entry list
val names : string list
val find : string -> entry option

val emit :
  ?json:bool -> ?pool:Vino_par.Pool.t -> ?iterations:int -> entry -> unit
(** Print the entry's table with its title and notes. With [json], a
    gated entry is also written as [BENCH_<name>.json] (schema
    vino-bench-v1, see {!Table.to_json}), which is said on stdout; its
    rows are then computed under a private trace sink so the emitted
    counters describe exactly this table's run. The sink never changes
    virtual cycle counts, so the rows match the plain run bit for bit.
    Notes are computed first, outside the sink. *)
