(* Round-robin interleaved timing. Every variant is timed in batches, one
   batch per variant per round, so a slow phase of the machine lands on all
   variants alike instead of on whichever ran back-to-back during it. Each
   variant reports the median and quartiles of its per-round ns/op. *)

type variant = {
  name : string;  (** metric name *)
  layer : string;  (** span name *)
  run : int -> int;  (** perform [n] operations; measured ns *)
  mutable batch : int;
  mutable samples : float list;  (** ns/op, newest first *)
}

let variant ~layer name run = { name; layer; run; batch = 1; samples = [] }

(* Wall time of [f n]: for operations timed as a whole batch. *)
let timed f n =
  let t0 = Bstats.now_ns () in
  f n;
  Bstats.now_ns () - t0

let calibrate ~target_ns v =
  ignore (v.run 1 : int);
  let rec go n =
    if n >= 1 lsl 20 || v.run n >= target_ns then n else go (2 * n)
  in
  v.batch <- go 1

(* At least [min_rounds] rounds, more while [budget_ns] lasts. Batches are
   sized so about twice [min_rounds] rounds fit in the budget. *)
let measure ~tag ~min_rounds ~budget_ns vs =
  let t_end = Bstats.now_ns () + budget_ns in
  let target_ns =
    max 100_000 (budget_ns / (List.length vs * 2 * min_rounds))
  in
  List.iter (calibrate ~target_ns) vs;
  let rounds = ref 0 in
  while !rounds < min_rounds || (Bstats.now_ns () < t_end && !rounds < 400) do
    List.iter
      (fun v ->
        let ns =
          Spans.with_span ~tag:(tag ^ "/" ^ v.name) v.layer (fun () ->
              v.run v.batch)
        in
        v.samples <- (float_of_int ns /. float_of_int v.batch) :: v.samples)
      vs;
    incr rounds
  done

let median v = Bstats.median v.samples
let quartiles v = Bstats.quartiles v.samples

(* Paired per-round difference [a - b] (samples are aligned by round). *)
let delta a b = Bstats.median (List.map2 ( -. ) a.samples b.samples)
