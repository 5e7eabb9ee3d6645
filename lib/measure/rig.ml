module Cpu = Vino_vm.Cpu
module Engine = Vino_sim.Engine
module Txn = Vino_txn.Txn
module Kernel = Vino_core.Kernel
module Linker = Vino_core.Linker
module Wrapper = Vino_core.Wrapper

type t = {
  kernel : Kernel.t;
  loaded : Linker.loaded;
  cred : Vino_core.Cred.t;
  limits : Vino_txn.Rlimit.t;
}

let load kernel ~words image =
  match Linker.load kernel ~words image with
  | Ok loaded ->
      {
        kernel;
        loaded;
        cred = Vino_core.Cred.root;
        limits = Vino_txn.Rlimit.unlimited ();
      }
  | Error e -> failwith ("Rig.load: " ^ e)

let seg_base t = t.loaded.Linker.seg.Vino_vm.Mem.base

type outcome = Committed | Rolled_back | Failed of string

let run t ?(indirection = Vino_txn.Tcosts.us 1.)
    ?(check_cost = Vino_txn.Tcosts.us 2.) ?(setup = fun _ -> ())
    ?(check = fun _ -> true) ~commit () =
  Engine.delay indirection;
  let txn = Txn.begin_ t.kernel.Kernel.txn_mgr ~name:"rig" () in
  let cpu, result =
    Wrapper.exec t.kernel ~txn ~cred:t.cred ~limits:t.limits
      ~seg:t.loaded.Linker.seg ~code:t.loaded.Linker.code
      ~flow:t.loaded.Linker.flow ~trans:t.loaded.Linker.trans ~setup ()
  in
  match result with
  | Cpu.Halted ->
      Engine.delay check_cost;
      if not (check cpu) then begin
        Txn.abort txn ~reason:"result validation failed";
        Failed "result validation failed"
      end
      else if commit then begin
        match Txn.commit txn with
        | Ok () -> Committed
        | Error reason -> Failed reason
      end
      else begin
        Txn.abort txn ~reason:"measured abort";
        Rolled_back
      end
  | Cpu.Faulted f ->
      let reason = Format.asprintf "%a" Cpu.pp_fault f in
      Txn.abort txn ~reason;
      Failed reason
  | Cpu.Aborted reason ->
      if Txn.is_active txn then Txn.abort txn ~reason;
      Failed reason
  | Cpu.Out_of_fuel ->
      Txn.abort txn ~reason:"budget";
      Failed "budget"

let run_exn t ?setup ~commit () =
  match run t ?setup ~commit () with
  | Committed | Rolled_back -> ()
  | Failed reason -> failwith ("Rig.run_exn: " ^ reason)

let time_abort t ?iterations ?indirection ?check_cost ?(before = fun _ -> ())
    ~setup () =
  let engine = t.kernel.Kernel.engine in
  let aborts = Vino_sim.Stats.create () in
  let (_ : Vino_sim.Stats.t) =
    Probe.samples t.kernel ?iterations (fun k ->
        before k;
        (* the check hook runs at the decision point: time from there *)
        let decided = ref 0 in
        let check _ =
          decided := Engine.now engine;
          true
        in
        (match
           run t ?indirection ?check_cost ~setup ~check ~commit:false ()
         with
        | Rolled_back -> ()
        | Committed | Failed _ -> failwith "expected rollback");
        Vino_sim.Stats.add aborts
          (Vino_vm.Costs.us_of_cycles (Engine.now engine - !decided)))
  in
  Vino_sim.Stats.trimmed_mean aborts

let path_table ?pool ~measure ~paper_elapsed ?indirection ~txn ~graft ~misfit
    ~abort () =
  let measured =
    Vino_par.Pool.map_scoped ?pool (fun p -> (p, measure p)) Path.all
  in
  let value p = List.assoc p measured in
  let row p =
    Table.elapsed ?paper:(List.assoc_opt p paper_elapsed) (Path.name p)
      (value p)
  in
  let inc ?paper label p q =
    Table.overhead ?paper label (value q -. value p)
  in
  let indirection =
    match indirection with
    | Some paper -> [ inc ~paper "Indirection cost" Path.Base Path.Vino ]
    | None -> []
  in
  (row Path.Base :: indirection)
  @ [
      row Path.Vino;
      inc ~paper:(snd txn) (fst txn) Path.Vino Path.Null;
      row Path.Null;
      inc ~paper:(snd graft) (fst graft) Path.Null Path.Unsafe;
      row Path.Unsafe;
      inc ~paper:misfit "MiSFIT overhead" Path.Unsafe Path.Safe;
      row Path.Safe;
      inc "MiSFIT recovered by static verifier" Path.Safe Path.Verified;
      row Path.Verified;
      inc "Kcall-flow check (above Safe)" Path.Safe Path.FlowChecked;
      row Path.FlowChecked;
      inc ~paper:abort "Abort cost (above commit)" Path.Safe Path.Abort;
      row Path.Abort;
    ]
