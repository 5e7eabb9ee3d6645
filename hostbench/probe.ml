(* Machine-speed probe. The host this benchmark runs on shares its cores
   and memory: over minutes its speed drifts by a third and more, and
   every host time drifts with it, whatever the program does. The probe is
   a fixed amount of work written here, outside the vino libraries: a
   small interpreter loop, record and list allocation, hash-table churn
   and closure calls, the kinds of host work the simulator does. It runs
   in a child process of its own (this executable with --probe) that
   keeps its own large heap, so the program's heap and GC state cannot
   move it. Timed between repetitions, it measures how fast the machine
   was just then; a run's median rate times (median probe time / nominal
   probe time) is its rate on a machine that runs the probe in
   [nominal_s], which is steady across those drifts. *)

type insn = Add of int * int | Mul of int * int | Ld of int | Jnz of int * int | Halt

let prog = [| Add (1, 3); Mul (2, 1); Add (0, -1); Ld 2; Jnz (0, 0); Halt |]

let interp regs mem =
  let pc = ref 0 and go = ref true in
  while !go do
    match prog.(!pc) with
    | Add (r, k) ->
        regs.(r) <- regs.(r) + k;
        incr pc
    | Mul (r, k) ->
        regs.(r) <- regs.(r) * k land 0xffff;
        incr pc
    | Ld r ->
        regs.(r) <- mem.(regs.(r) land 1023);
        incr pc
    | Jnz (r, t) -> if regs.(r) <> 0 then pc := t else incr pc
    | Halt -> go := false
  done

type record = { key : int; items : int list; weight : float }

(* The child keeps this many records live between probes, a major heap of
   some tens of MiB, as the simulator's warmed kernels and sites do; each
   probe replaces records in it, so its time includes major-GC work over
   a large heap as well as small-heap interpretation and allocation. *)
let resident = 1 lsl 18

let record i = { key = i; items = [ i; i lxor 5; i + 1 ]; weight = float_of_int i }

let work table =
  let small = Hashtbl.create 1024 in
  let mem = Array.init 1024 (fun i -> i * 7) in
  let acc = ref 0 in
  for i = 1 to 10_000 do
    let regs = Array.make 4 0 in
    regs.(0) <- 40;
    interp regs mem;
    Hashtbl.replace small (i land 4095) (record regs.(2));
    (match Hashtbl.find_opt small (i * 31 land 4095) with
    | Some r -> acc := !acc + r.key + List.length r.items + int_of_float r.weight
    | None -> ());
    let k = i * 40503 land (resident - 1) in
    Hashtbl.replace table k (record (i + !acc));
    let f x = x + i in
    acc := !acc + f regs.(1)
  done;
  !acc

(* About the probe's time on the 2-core x86 VM the benchmark was tuned
   on, so calibrated figures stay near raw ones there. Changing it
   rescales every calibrated figure. *)
let nominal_s = 0.025

(* The child: builds its resident heap and runs one untimed probe, then
   for every line on its standard input prints the median seconds of
   three timed probes; it ends at end of input. *)
let child () =
  let table = Hashtbl.create resident in
  for i = 0 to resident - 1 do
    Hashtbl.replace table i (record i)
  done;
  ignore (Sys.opaque_identity (work table) : int);
  let timed () =
    let t0 = Bstats.now_ns () in
    ignore (Sys.opaque_identity (work table) : int);
    Bstats.seconds_since t0
  in
  try
    while true do
      ignore (input_line stdin : string);
      Printf.printf "%.9f\n%!" (Bstats.median (List.init 3 (fun _ -> timed ())))
    done
  with End_of_file -> ()

let child_process = ref None

(* Seconds for one probe, measured in the child process, which is started
   on first use. *)
let run () =
  let ic, oc =
    match !child_process with
    | Some p -> p
    | None ->
        let exe = Sys.executable_name in
        let p = Unix.open_process_args exe [| exe; "--probe" |] in
        child_process := Some p;
        p
  in
  output_string oc "\n";
  flush oc;
  match float_of_string_opt (input_line ic) with
  | Some s -> s
  | None -> failwith "machine-speed probe failed"

(* Ends the child and waits for it. *)
let stop () =
  Option.iter
    (fun p ->
      child_process := None;
      ignore (Unix.close_process p : Unix.process_status))
    !child_process
