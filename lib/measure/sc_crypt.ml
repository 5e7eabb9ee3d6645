(* Table 6: the encryption (Stream) graft. *)

module Cpu = Vino_vm.Cpu
module Mem = Vino_vm.Mem
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Graft_point = Vino_core.Graft_point
module Channel = Vino_stream.Channel
module Sgrafts = Vino_stream.Grafts

let buffer_words = Channel.buffer_words_8kb
let key = 0x5EC2E7

type fixture = {
  kernel : Kernel.t;
  channel : Channel.t;
  data : int array;
  cred : Vino_core.Cred.t;
}

let fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let channel = Channel.create kernel ~name:"bench" () in
  let data = Array.init buffer_words (fun k -> (k * 2654435761) land 0xFFFF) in
  { kernel; channel; data; cred = Vino_core.Cred.root }

let segment_words = (2 * buffer_words) + 512

(* Entry facts established by [setup]: r1 = segment base (source buffer),
   r2 = base + buffer_words (destination), r3 = word count <= buffer_words.
   The verifier's interval analysis bounds the loop counter by r3 and
   proves every load and store of the transform loop in-segment — the
   paper's worst SFI case (per-word load + store) drops to zero sandbox
   instructions on the Verified path. *)
let verify_config =
  Vino_verify.Verify.config
    ~entry:
      [
        (1, Vino_verify.Verify.seg_window ());
        (2, Vino_verify.Verify.seg_window ~off:buffer_words ());
        (3, Vino_verify.Verify.arg_at_most buffer_words);
      ]
    ~words:segment_words ()

let graft_image fx path =
  let source =
    match path with
    | Path.Null -> [ Vino_vm.Asm.Li (Vino_vm.Asm.r0, 0); Ret ]
    | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked | Path.Abort
      ->
        Sgrafts.xor_encrypt_source ~key
    | Path.Base | Path.Vino -> invalid_arg "no graft on this path"
  in
  let obj = Vino_vm.Asm.assemble_exn source in
  match path with
  | Path.Unsafe -> Kernel.seal_unsafe fx.kernel obj
  | Path.Verified -> (
      match Kernel.seal ~verify:verify_config fx.kernel obj with
      | Ok image -> image
      | Error e -> failwith e)
  | _ -> (
      match Kernel.seal fx.kernel obj with
      | Ok image -> image
      | Error e -> failwith e)

(* the kernel's copyin of the source buffer, then argument registers *)
let setup fx cpu =
  let seg = Cpu.segment cpu in
  Engine.delay (Array.length fx.data * Channel.bcopy_cycles_per_word);
  Array.iteri
    (fun k v -> Mem.store fx.kernel.Kernel.mem (Mem.sandbox seg k) v)
    fx.data;
  Cpu.set_reg cpu 1 (Cpu.segment cpu).Vino_vm.Mem.base;
  Cpu.set_reg cpu 2 ((Cpu.segment cpu).Vino_vm.Mem.base + buffer_words);
  Cpu.set_reg cpu 3 (Array.length fx.data)

let stats ?(iterations = 300) path =
  let fx = fixture () in
  let point = Channel.point fx.channel in
  match path with
  | Path.Base ->
      Probe.samples fx.kernel ~iterations (fun _ ->
          ignore (Graft_point.default_fn point fx.data))
  | Path.Vino ->
      Probe.samples fx.kernel ~iterations (fun _ ->
          ignore (Graft_point.invoke point fx.kernel ~cred:fx.cred fx.data))
  | Path.Null | Path.Unsafe | Path.Safe | Path.Verified | Path.FlowChecked
  | Path.Abort ->
      if path = Path.FlowChecked then fx.kernel.Kernel.flow_enforce <- true;
      let rig = Rig.load fx.kernel ~words:segment_words (graft_image fx path) in
      let commit = path <> Path.Abort in
      Probe.samples fx.kernel ~iterations (fun _ ->
          match
            Rig.run rig ~indirection:0 ~check_cost:0 ~setup:(setup fx)
              ~commit ()
          with
          | Rig.Committed | Rig.Rolled_back -> ()
          | Rig.Failed reason -> failwith reason)

let measure ?iterations path =
  Vino_sim.Stats.trimmed_mean (stats ?iterations path)

let measure_abort ?iterations ~full () =
  let fx = fixture () in
  let path = if full then Path.Abort else Path.Null in
  let rig = Rig.load fx.kernel ~words:segment_words (graft_image fx path) in
  Rig.time_abort rig ?iterations ~indirection:0 ~check_cost:0
    ~setup:(setup fx) ()

let paper_elapsed =
  [
    (Path.Base, 105.);
    (Path.Vino, 105.);
    (Path.Null, 193.);
    (Path.Unsafe, 359.);
    (Path.Safe, 546.);
    (Path.Abort, 550.);
  ]

let table ?iterations ?pool () =
  Rig.path_table ?pool ~measure:(measure ?iterations) ~paper_elapsed
    ~txn:("Txn begin+commit (+ cache misses)", 88.)
    ~graft:("Graft function", 166.)
    ~misfit:187. ~abort:4. ()
