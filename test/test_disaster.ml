(* Tests for the disaster rig: seeded fault-injection campaigns with
   post-recovery invariant checks across all five graft-point families. *)

module Seed = Vino_disaster.Seed
module Injector = Vino_disaster.Injector
module Site = Vino_disaster.Site
module Campaign = Vino_disaster.Campaign
module Engine = Vino_sim.Engine
module Kernel = Vino_core.Kernel
module Txn = Vino_txn.Txn
module Lock = Vino_txn.Lock

(* ------------------------------ seed ---------------------------------- *)

let test_seed_deterministic () =
  let a = Seed.make 7 and b = Seed.make 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Seed.bits a) (Seed.bits b)
  done;
  let c = Seed.make 8 in
  Alcotest.(check bool) "different seed, different stream" true
    (List.init 10 (fun _ -> Seed.bits a)
    <> List.init 10 (fun _ -> Seed.bits c))

let test_seed_derive_independent () =
  let draws t = List.init 10 (fun _ -> Seed.bits t) in
  let a = draws (Seed.derive ~seed:1 0) in
  Alcotest.(check bool) "adjacent indices decorrelated" true
    (a <> draws (Seed.derive ~seed:1 1));
  Alcotest.(check bool) "re-derivation replays" true
    (a = draws (Seed.derive ~seed:1 0))

let test_seed_bounds () =
  let t = Seed.make 3 in
  for _ = 1 to 1000 do
    let v = Seed.range t ~lo:10 ~hi:20 in
    Alcotest.(check bool) "in range" true (v >= 10 && v < 20)
  done

(* --------------------------- injectors -------------------------------- *)

let test_injector_same_seed_same_variant () =
  let site = Site.create Site.Stream_copy in
  List.iter
    (fun kind ->
      let v1 =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      let v2 =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      Alcotest.(check bool)
        (Injector.name kind ^ " reproducible")
        true
        (v1.Injector.source = v2.Injector.source
        && v1.Injector.expect = v2.Injector.expect))
    Injector.all

let test_injector_changes_source () =
  let site = Site.create Site.Stream_copy in
  List.iter
    (fun kind ->
      let v =
        Injector.apply kind ~rng:(Seed.derive ~seed:5 9) ~rig:site.Site.rig
          site.Site.healthy
      in
      Alcotest.(check bool)
        (Injector.name kind ^ " mutates the source")
        true
        (v.Injector.source <> site.Site.healthy))
    Injector.all

(* ------------------------ single injections --------------------------- *)

(* Find the first campaign index that hits (family, kind). *)
let index_of family kind =
  let rec go i =
    if i > 1000 then Alcotest.fail "combo not found"
    else
      let f, k = Campaign.combo i in
      if f = family && k = kind then i else go (i + 1)
  in
  go 0

let check_clean r =
  match r.Campaign.violations with
  | [] -> ()
  | vs -> Alcotest.failf "violations: %s" (String.concat "; " vs)

let test_wild_store_contained () =
  (* Wild stores are defanged by the sandbox: whatever the outcome for the
     graft, the targeted kernel word is untouched (checked by the record's
     posts) and every invariant holds. *)
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Wild_store)
      in
      check_clean r)
    Site.all_families

let test_infinite_loop_recovered () =
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Infinite_loop)
      in
      check_clean r;
      Alcotest.(check bool)
        (Site.family_name family ^ ": loop recovered")
        true
        (r.Campaign.observed = Injector.Recovered))
    Site.all_families

let test_lock_hog_aborted_and_lock_released () =
  let r =
    Campaign.run_injection ~seed:11
      ~index:(index_of Site.Stream_copy Injector.Lock_hog)
  in
  check_clean r;
  Alcotest.(check bool) "recovered" true
    (r.Campaign.observed = Injector.Recovered)

let test_bad_call_both_variants_appear () =
  (* Across many seeds the bad-call injector must produce both the
     statically-provable variant (load rejected) and the laundered variant
     (caught by the runtime probe) — and both must leave a clean site. *)
  let outcomes = ref [] in
  for seed = 1 to 12 do
    let r =
      Campaign.run_injection ~seed
        ~index:(index_of Site.Stream_copy Injector.Bad_call)
    in
    check_clean r;
    outcomes := r.Campaign.observed :: !outcomes
  done;
  Alcotest.(check bool) "some loads rejected by the static check" true
    (List.mem Injector.Rejected !outcomes);
  Alcotest.(check bool) "some caught at run time" true
    (List.mem Injector.Recovered !outcomes)

let test_undo_bomb_still_rolls_back () =
  let r =
    Campaign.run_injection ~seed:11
      ~index:(index_of Site.Fs_readahead Injector.Undo_bomb)
  in
  check_clean r

let test_nested_fault_merged_state_recovered () =
  List.iter
    (fun family ->
      let r =
        Campaign.run_injection ~seed:11
          ~index:(index_of family Injector.Nested_fault)
      in
      check_clean r)
    [ Site.Stream_copy; Site.Vmem_evict ]

(* ----------------------------- campaign ------------------------------- *)

(* Decode [Campaign.to_json]'s text back into a report: building each
   record makes the compiler demand every field, violations included. *)
let report_of_json j =
  let module J = Vino_trace.Json in
  let field name v =
    match J.member name v with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" name
  in
  let int name v = Option.get (J.int_value (field name v)) in
  let str name v = Option.get (J.string_value (field name v)) in
  let named name_of all name v =
    List.find (fun x -> name_of x = str name v) all
  in
  let expectation =
    named Injector.expectation_name
      Injector.[ Rejected; Contained; Recovered ]
  in
  let record v =
    {
      Campaign.index = int "index" v;
      family = named Site.family_name Site.all_families "family" v;
      kind = named Injector.name Injector.all "kind" v;
      note = str "note" v;
      expect = expectation "expect" v;
      observed = expectation "observed" v;
      violations =
        List.map
          (fun s -> Option.get (J.string_value s))
          (J.to_list (field "violations" v));
      fingerprint = str "fingerprint" v;
      vtime = int "vtime" v;
    }
  in
  {
    Campaign.seed = int "seed" j;
    count = int "count" j;
    records = List.map record (J.to_list (field "records" j));
  }

let check_json report =
  let module J = Vino_trace.Json in
  match J.of_string (J.to_string (Campaign.to_json report)) with
  | Error e -> Alcotest.failf "campaign JSON does not parse: %s" e
  | Ok j ->
      Alcotest.(check bool) "JSON decodes to the report" true
        (report_of_json j = report)

let test_campaign_full_product_clean () =
  (* 40 injections = the full 5-family x 8-injector product, each run twice
     (determinism check). The ISSUE's acceptance bar. *)
  let report = Campaign.run ~seed:1 ~count:40 () in
  Alcotest.(check int) "all families" 5 (Campaign.families_covered report);
  Alcotest.(check int) "all injectors" 8 (Campaign.injectors_covered report);
  (match Campaign.violations report with
  | [] -> ()
  | vs ->
      Alcotest.failf "%d violations:\n%s" (List.length vs)
        (String.concat "\n" vs));
  Alcotest.(check bool) "report ok" true (Campaign.ok report)

let test_campaign_deterministic_across_runs () =
  let fingerprints report =
    List.map (fun r -> r.Campaign.fingerprint) report.Campaign.records
  in
  let a = Campaign.run ~check_determinism:false ~seed:42 ~count:10 () in
  let b = Campaign.run ~check_determinism:false ~seed:42 ~count:10 () in
  Alcotest.(check (list string))
    "same seed, same fingerprints" (fingerprints a) (fingerprints b);
  let c = Campaign.run ~check_determinism:false ~seed:43 ~count:10 () in
  Alcotest.(check bool) "different seed, different campaign" true
    (fingerprints a <> fingerprints c);
  check_json a;
  (* violations, and strings JSON must escape, survive the encoder too *)
  check_json
    {
      a with
      Campaign.records =
        List.mapi
          (fun k r ->
            if k > 0 then r
            else
              {
                r with
                Campaign.note = "tab\there, \"quoted\"\n";
                violations = [ "lock \"vfs\" still held"; "back\\slash" ];
              })
          a.Campaign.records;
    }

let suite =
  [
    ( "disaster",
      [
        Alcotest.test_case "seed: deterministic stream" `Quick
          test_seed_deterministic;
        Alcotest.test_case "seed: derived streams independent" `Quick
          test_seed_derive_independent;
        Alcotest.test_case "seed: range bounds" `Quick test_seed_bounds;
        Alcotest.test_case "injector: same seed, same variant" `Quick
          test_injector_same_seed_same_variant;
        Alcotest.test_case "injector: variant differs from healthy" `Quick
          test_injector_changes_source;
        Alcotest.test_case "wild store contained on every family" `Quick
          test_wild_store_contained;
        Alcotest.test_case "infinite loop recovered on every family" `Quick
          test_infinite_loop_recovered;
        Alcotest.test_case "lock hog aborted, lock released" `Quick
          test_lock_hog_aborted_and_lock_released;
        Alcotest.test_case "bad call: rejected statically or caught live"
          `Quick test_bad_call_both_variants_appear;
        Alcotest.test_case "undo bomb: abort still completes" `Quick
          test_undo_bomb_still_rolls_back;
        Alcotest.test_case "nested fault: merged state recovered" `Quick
          test_nested_fault_merged_state_recovered;
        Alcotest.test_case "campaign: full product, all invariants" `Slow
          test_campaign_full_product_clean;
        Alcotest.test_case "campaign: same seed, same outcomes" `Quick
          test_campaign_deterministic_across_runs;
      ] );
  ]
