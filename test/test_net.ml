(* Tests for ports and the kernel HTTP server graft. *)

module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Event_point = Vino_core.Event_point
module Cred = Vino_core.Cred
module Rlimit = Vino_txn.Rlimit
module Port = Vino_net.Port
module Httpd = Vino_net.Httpd

let app = Cred.user "net-test" ~limits:(Rlimit.unlimited ())

let test_port_protocol_enforced () =
  let kernel = Kernel.create ~mem_words:(1 lsl 14) () in
  let tcp = Port.create kernel Tcp ~number:80 in
  let udp = Port.create kernel Udp ~number:2049 in
  Alcotest.check_raises "datagram on tcp"
    (Invalid_argument "Port.datagram: not a UDP port") (fun () ->
      Port.datagram tcp ~payload:[||]);
  Alcotest.check_raises "connect on udp"
    (Invalid_argument "Port.connect: not a TCP port") (fun () ->
      Port.connect udp ~payload:[||])

let test_events_counted () =
  let kernel = Kernel.create ~mem_words:(1 lsl 14) () in
  let tcp = Port.create kernel Tcp ~number:8080 in
  Port.connect tcp ~payload:[| 1 |];
  Port.connect tcp ~payload:[| 2 |];
  Kernel.run kernel;
  Alcotest.(check int) "two events" 2 (Port.events tcp)

let httpd_fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 15) () in
  let httpd = Httpd.create kernel () in
  Httpd.add_document httpd ~path:42 ~size:1234;
  (match Httpd.install httpd ~cred:app with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (kernel, httpd)

let test_httpd_serves_documents () =
  let kernel, httpd = httpd_fixture () in
  Httpd.get httpd ~path:42;
  Kernel.run kernel;
  Alcotest.(check (list (pair int int))) "200 with size" [ (200, 1234) ]
    (Httpd.responses httpd)

let test_httpd_404 () =
  let kernel, httpd = httpd_fixture () in
  Httpd.get httpd ~path:7;
  Kernel.run kernel;
  Alcotest.(check (list (pair int int))) "404" [ (404, 0) ]
    (Httpd.responses httpd)

let test_httpd_bad_method () =
  let kernel, httpd = httpd_fixture () in
  Port.connect (Httpd.port httpd) ~payload:[| 99; 42 |];
  Kernel.run kernel;
  Alcotest.(check (list (pair int int))) "400" [ (400, 0) ]
    (Httpd.responses httpd)

let test_httpd_survives_many_requests_transactionally () =
  let kernel, httpd = httpd_fixture () in
  for k = 1 to 20 do
    Httpd.get httpd ~path:(if k mod 2 = 0 then 42 else 9);
    Kernel.run kernel
  done;
  Alcotest.(check int) "20 responses" 20 (List.length (Httpd.responses httpd));
  Alcotest.(check int) "every request ran in its own committed transaction"
    20
    (Vino_txn.Txn.commits kernel.Kernel.txn_mgr);
  Alcotest.(check int) "handler still installed" 1
    (Event_point.handler_count (Port.event_point (Httpd.port httpd)))

module Nfsd = Vino_net.Nfsd

let nfs_fixture () =
  let kernel = Kernel.create ~mem_words:(1 lsl 16) () in
  let disk = Vino_fs.Disk.create kernel.Kernel.engine () in
  let cache = Vino_fs.Cache.create ~capacity:32 () in
  let file =
    Vino_fs.File.openf ~kernel ~cache ~disk ~name:"exported" ~first_block:0
      ~blocks:16 ()
  in
  let nfsd = Nfsd.create kernel () in
  Nfsd.export nfsd ~fileid:7 file;
  (match Nfsd.install nfsd ~cred:app with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (kernel, nfsd)

let test_nfs_reads_through_disk_and_cache () =
  let kernel, nfsd = nfs_fixture () in
  Nfsd.read_request nfsd ~fileid:7 ~block:3;
  Kernel.run kernel;
  Nfsd.read_request nfsd ~fileid:7 ~block:3;
  Kernel.run kernel;
  (match Nfsd.responses nfsd with
  | [ Nfsd.Ok_read { cache_hit = false }; Nfsd.Ok_read { cache_hit = true } ]
    ->
      ()
  | rs -> Alcotest.failf "unexpected responses (%d)" (List.length rs));
  (* the second read took virtual time too, but far less: the handler
     really went to the simulated disk the first time *)
  Alcotest.(check bool) "simulated time passed (disk I/O)" true
    (Kernel.now_us kernel > 5_000.)

let test_nfs_error_paths () =
  let kernel, nfsd = nfs_fixture () in
  Nfsd.read_request nfsd ~fileid:99 ~block:0;
  Kernel.run kernel;
  Nfsd.read_request nfsd ~fileid:7 ~block:999;
  Kernel.run kernel;
  Alcotest.(check bool) "noent then badblock" true
    (Nfsd.responses nfsd = [ Nfsd.No_such_file; Nfsd.Bad_block ]);
  (* the handler survived both error paths *)
  Alcotest.(check int) "handler alive" 1
    (Event_point.handler_count (Port.event_point (Nfsd.port nfsd)))

let test_audit_trail_of_event_points () =
  let kernel, nfsd = nfs_fixture () in
  Nfsd.read_request nfsd ~fileid:7 ~block:1;
  Kernel.run kernel;
  let installed =
    List.exists
      (fun e ->
        match e.Vino_core.Audit.event with
        | Vino_core.Audit.Handler_added { point = "udp.port-2049"; _ } -> true
        | _ -> false)
      (Vino_core.Audit.entries kernel.Kernel.audit)
  in
  Alcotest.(check bool) "handler install audited" true installed

let test_second_httpd_rejected () =
  let kernel, _ = httpd_fixture () in
  match Httpd.create kernel ~port:8080 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate HTTP kernel functions accepted"

module Netout = Vino_net.Netout
module Graft_point = Vino_core.Graft_point

(* a graft that tries to send [count] packets to destination 5 *)
let flooder_source count : Vino_vm.Asm.item list =
  [
    Li (Vino_vm.Asm.r5, 0);
    Li (Vino_vm.Asm.r6, count);
    Label "loop";
    Br (Vino_vm.Insn.Ge, Vino_vm.Asm.r5, Vino_vm.Asm.r6, "done");
    Li (Vino_vm.Asm.r1, 5);
    Kcall "net.send";
    Alui (Vino_vm.Insn.Add, Vino_vm.Asm.r5, Vino_vm.Asm.r5, 1);
    Jmp "loop";
    Label "done";
    Li (Vino_vm.Asm.r0, 0);
    Ret;
  ]

let netout_fixture ~packet_quota =
  let kernel = Kernel.create ~mem_words:(1 lsl 15) () in
  let net = Netout.create kernel () in
  let point =
    Graft_point.create ~name:"flood.point"
      ~default:(fun () -> ())
      ~setup:(fun _ () -> ())
      ~read_result:(fun _ () -> Ok ())
      ()
  in
  let limits = Rlimit.create ~net_packets:packet_quota () in
  let image =
    match
      Kernel.seal kernel (Vino_vm.Asm.assemble_exn (flooder_source 100))
    with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  (match Graft_point.replace point kernel ~cred:app ~limits image with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (kernel, net, point)

let invoke kernel point =
  ignore
    (Engine.spawn kernel.Kernel.engine (fun () ->
         Graft_point.invoke point kernel ~cred:app ()));
  Kernel.run kernel

let test_packet_quota_stops_flood () =
  let kernel, net, point = netout_fixture ~packet_quota:10 in
  invoke kernel point;
  Alcotest.(check int) "only the quota got out" 10 (Netout.transmitted net);
  Alcotest.(check int) "90 denied" 90 (Netout.quota_denials net);
  Alcotest.(check bool) "graft survived (denial is not a fault)" true
    (Graft_point.grafted point)

let test_aborted_sends_never_hit_the_wire () =
  (* same flood, but the graft crashes after queueing: the transaction
     aborts, the deferred transmissions are dropped and the quota is
     refunded by the undo log *)
  let kernel = Kernel.create ~mem_words:(1 lsl 15) () in
  let net = Netout.create kernel () in
  let limits = Rlimit.create ~net_packets:10 () in
  let point =
    Graft_point.create ~name:"crashy-flood"
      ~default:(fun () -> ())
      ~setup:(fun _ () -> ())
      ~read_result:(fun _ () -> Ok ())
      ()
  in
  let source =
    [
      Vino_vm.Asm.Li (Vino_vm.Asm.r1, 5);
      Kcall "net.send";
      Li (Vino_vm.Asm.r1, 5);
      Kcall "net.send";
      (* crash *)
      Li (Vino_vm.Asm.r2, 0);
      Li (Vino_vm.Asm.r3, 1);
      Alu (Vino_vm.Insn.Div, Vino_vm.Asm.r0, Vino_vm.Asm.r3, Vino_vm.Asm.r2);
      Ret;
    ]
  in
  let image =
    match Kernel.seal kernel (Vino_vm.Asm.assemble_exn source) with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  (match Graft_point.replace point kernel ~cred:app ~limits image with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  invoke kernel point;
  Alcotest.(check int) "nothing transmitted" 0 (Netout.transmitted net);
  Alcotest.(check int) "quota fully refunded" 0
    (Rlimit.used limits Rlimit.Net_packets)

let test_committed_sends_transmit () =
  let kernel, net, point = netout_fixture ~packet_quota:200 in
  invoke kernel point;
  Alcotest.(check int) "all 100 transmitted" 100 (Netout.transmitted net);
  Alcotest.(check int) "to the right destination" 100
    (Netout.transmitted_to net ~dest:5)

(* Event-point workers own their transaction outright, so each request
   returns its frame to the manager's arena — on commit and on a fault
   alike — with the lock released and no waiter left behind. The
   per-handler names are computed once at install and read exactly as
   they always have. *)
let test_event_point_recycles_frames () =
  let module Txn = Vino_txn.Txn in
  let module Lock = Vino_txn.Lock in
  let module Asm = Vino_vm.Asm in
  let module Audit = Vino_core.Audit in
  let kernel = Kernel.create ~mem_words:(1 lsl 15) () in
  let mgr = kernel.Kernel.txn_mgr in
  let lock = Kernel.make_lock kernel ~name:"ep.test" () in
  let seen = ref [] in
  let (_ : Vino_core.Kcall.fn) =
    Kernel.register_kcall kernel ~name:"ep.acquire" (fun ctx ->
        match ctx.Vino_core.Kcall.txn with
        | None -> Vino_core.Kcall.abort "ep.acquire outside a transaction"
        | Some txn -> (
            seen :=
              (Engine.proc_name (Engine.self ()), Txn.name txn) :: !seen;
            match Txn.acquire_lock txn lock Exclusive with
            | Ok () -> Vino_core.Kcall.ok
            | Error reason -> Vino_core.Kcall.abort reason))
  in
  (* take the lock, then divide by the first payload word: a zero word
     faults with the lock held *)
  let source : Asm.item list =
    [
      Mov (Asm.r5, Asm.r1);
      Kcall "ep.acquire";
      Ld (Asm.r6, Asm.r5, 0);
      Li (Asm.r7, 10);
      Alu (Vino_vm.Insn.Div, Asm.r0, Asm.r7, Asm.r6);
      Ret;
    ]
  in
  let image =
    match Kernel.seal kernel (Asm.assemble_exn source) with
    | Ok i -> i
    | Error e -> Alcotest.fail e
  in
  let port = Port.create kernel Tcp ~number:8123 in
  let ep = Port.event_point port in
  let hid =
    match Event_point.add_handler ep kernel ~cred:app image with
    | Ok hid -> hid
    | Error e -> Alcotest.fail e
  in
  let quiet () =
    Alcotest.(check (list string)) "no lock holder" []
      (List.map fst (Lock.holders lock));
    Alcotest.(check (list string)) "no lock waiter" []
      (List.map fst (Lock.waiters lock));
    Alcotest.(check int) "every frame returned" 0 (Txn.frames_outstanding mgr)
  in
  let sink = Vino_trace.Trace.create () in
  let rounds = 5 in
  Vino_trace.Trace.with_t sink (fun () ->
      for _ = 1 to rounds do
        (* two concurrent requests contend for the lock *)
        Port.connect port ~payload:[| 2 |];
        Port.connect port ~payload:[| 5 |];
        Kernel.run kernel;
        quiet ()
      done);
  let n = 2 * rounds in
  Alcotest.(check int) "one transaction per request" n (Txn.begins mgr);
  Alcotest.(check int) "all committed" n (Txn.commits mgr);
  Alcotest.(check bool) "frames parked for reuse" true
    (Txn.frames_retained mgr >= 1);
  Alcotest.(check bool) "the two requests contended" true
    (Lock.contentions lock > 0);
  let txn_name = Printf.sprintf "tcp.port-8123#%d" hid in
  let worker_name = Printf.sprintf "tcp.port-8123-worker-%d" hid in
  Alcotest.(check (list (pair string string)))
    "worker and transaction names"
    (List.init n (fun _ -> (worker_name, txn_name)))
    !seen;
  let begins =
    List.filter_map
      (fun (sp : Vino_trace.Span.t) ->
        match sp.kind with Txn_begin -> Some sp.label | _ -> None)
      (Vino_trace.Trace.spans sink)
  in
  Alcotest.(check (list string)) "trace labels" (List.init n (fun _ -> txn_name))
    begins;
  (* a faulting request aborts with the lock held and still returns its
     frame *)
  Port.connect port ~payload:[| 0 |];
  Kernel.run kernel;
  quiet ();
  Alcotest.(check int) "one more transaction" (n + 1) (Txn.begins mgr);
  Alcotest.(check int) "it aborted" 1 (Txn.aborts mgr);
  Alcotest.(check int) "faulting handler removed" 0
    (Event_point.handler_count ep);
  let failed =
    List.filter_map
      (fun (e : Audit.entry) ->
        match e.Audit.event with
        | Audit.Handler_failed { point; handler; _ } -> Some (point, handler)
        | _ -> None)
      (Audit.entries kernel.Kernel.audit)
  in
  Alcotest.(check (list (pair string int))) "failure audited"
    [ ("tcp.port-8123", hid) ]
    failed

let suite =
  [
    ( "net",
      [
        Alcotest.test_case "port protocol enforced" `Quick
          test_port_protocol_enforced;
        Alcotest.test_case "events counted" `Quick test_events_counted;
        Alcotest.test_case "httpd serves documents" `Quick
          test_httpd_serves_documents;
        Alcotest.test_case "httpd 404" `Quick test_httpd_404;
        Alcotest.test_case "httpd rejects bad method" `Quick
          test_httpd_bad_method;
        Alcotest.test_case "httpd survives many transactional requests"
          `Quick test_httpd_survives_many_requests_transactionally;
        Alcotest.test_case "second httpd rejected" `Quick
          test_second_httpd_rejected;
        Alcotest.test_case "NFS reads through cache and disk" `Quick
          test_nfs_reads_through_disk_and_cache;
        Alcotest.test_case "NFS error paths survive" `Quick
          test_nfs_error_paths;
        Alcotest.test_case "event installs are audited" `Quick
          test_audit_trail_of_event_points;
        Alcotest.test_case "packet quota stops a flood (§2.2)" `Quick
          test_packet_quota_stops_flood;
        Alcotest.test_case "aborted sends never hit the wire" `Quick
          test_aborted_sends_never_hit_the_wire;
        Alcotest.test_case "committed sends transmit" `Quick
          test_committed_sends_transmit;
        Alcotest.test_case "event point recycles transaction frames" `Quick
          test_event_point_recycles_frames;
      ] );
  ]
