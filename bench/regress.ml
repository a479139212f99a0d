(* The @bench-regress gate: tiny, seed-deterministic bench runs whose
   gated metrics (transaction/signature counts, virtual-clock latencies)
   must match the committed baselines in bench/baselines/.

   Five miniature benches ride the same code paths as the full suite:

   - smallbank: closed-loop SmallBank load through Harness.run_iaccf, in
     the full, no-receipt and signed-commit-ablation variants;
   - statesync: one chunked catch-up of a joining replica (the
     @statesync-bench path at its smallest size);
   - chaos: the identity-intercept equivalence run from @chaos-overhead;
   - crypto: the batched verify stage's count invariants;
   - load: an open-loop on/off burst through the shared generator with
     admission control shedding at the primary (the @load-bench path at
     its smallest size).

   Each writes its BENCH_regress_*.json, which is schema-checked and then
   compared against the baseline with the report layer's gate semantics
   (exact counts, tolerant virtual ms, informational wall clock). Exit is
   nonzero on any regression, so `dune runtest` fails when the bench
   trajectory moves.

   Regenerate baselines after an intentional change with
     dune exec bench/regress.exe -- --write-baselines bench/baselines
   from the repo root. *)

open Iaccf_core
module Obs = Iaccf_obs.Obs
module Report = Iaccf_report.Report
open Harness

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench-regress: " ^ s); exit 1) fmt

(* --- smallbank: three variants through the shared harness ------------- *)

let smallbank_results () =
  let total = 60 and concurrency = 16 and accounts = 20 in
  [
    run_iaccf ~label:"full" ~total ~concurrency ~accounts ();
    run_iaccf ~label:"no_receipt" ~variant:Variant.no_receipt ~total ~concurrency
      ~accounts ();
    run_iaccf ~label:"signed_commits" ~variant:Variant.signed_commits ~total
      ~concurrency ~accounts ();
  ]

(* --- statesync: the @statesync-bench catch-up at its smallest size ---- *)

let statesync_rows () =
  let txs = 100 in
  let entries, _wall, bytes, chunks, skipped =
    catchup_run ~txs ~concurrency:16
  in
  let bench = "regress_statesync" in
  let series = Printf.sprintf "catchup txs=%d" txs in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "ledger_entries" entries;
    exact "snapshot_bytes" bytes;
    exact "chunks" chunks;
    exact "entries_skipped" skipped;
  ]

(* --- chaos: the @chaos-overhead identity-intercept equivalence, smaller  *)

let chaos_rows () =
  let requests = 20 in
  let direct = intercept_run ~requests ~intercepted:false in
  let wrapped = intercept_run ~requests ~intercepted:true in
  if
    direct.virtual_ms <> wrapped.virtual_ms
    || direct.completions <> wrapped.completions
  then fail "identity intercept changed a fault-free run";
  let bench = "regress_chaos" in
  let series = "identity_intercept" in
  [
    Report.row ~bench ~series ~metric:"txs" ~gate:Report.Exact
      (float_of_int requests);
    Report.row ~bench ~series ~metric:"virtual_ms" ~gate:Report.Exact
      direct.virtual_ms;
  ]

(* --- crypto: the batched verify stage, counts only (wall clock lives in
   @crypto-bench) -------------------------------------------------------- *)

let crypto_rows () =
  let module Crypto = Iaccf_crypto in
  let n_keys = 4 and n_jobs = 24 in
  let keys =
    Array.init n_keys (fun i ->
        Crypto.Schnorr.keypair_of_seed (Printf.sprintf "regress-%d" i))
  in
  let jobs =
    List.init n_jobs (fun i ->
        let sk, pk = keys.(i mod n_keys) in
        let digest = Crypto.Sha256.digest (Printf.sprintf "regress-msg-%d" i) in
        let signature =
          if i mod 8 = 7 then String.make 64 '\x2a'
          else Crypto.Schnorr.sign sk digest
        in
        { Crypto.Parverify.j_pk = pk; j_digest = digest; j_signature = signature })
  in
  let inline = List.map Crypto.Parverify.run_job jobs in
  let pooled = Crypto.Parverify.verify_batch_results ~domains:4 jobs in
  if inline <> pooled then fail "pooled verification diverged from inline";
  (* Two waves through a pooled stage with a flush between: wave 2 repeats
     wave 1's keys, so its hit/miss split is seed-deterministic. *)
  let st = Crypto.Vstage.create ~domains:4 () in
  let staged = ref [] in
  let wave () =
    List.iter
      (fun j ->
        Crypto.Vstage.submit st ~cls:"regress"
          ~principal:Crypto.Profile.Client_key j.Crypto.Parverify.j_pk
          j.Crypto.Parverify.j_digest ~signature:j.Crypto.Parverify.j_signature
          (fun ok -> staged := ok :: !staged))
      jobs;
    Crypto.Vstage.flush st
  in
  wave ();
  wave ();
  if List.rev !staged <> inline @ inline then
    fail "staged verification diverged from inline";
  let bench = "regress_crypto" in
  let series = Printf.sprintf "verify jobs=%d keys=%d" n_jobs n_keys in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "jobs" n_jobs;
    exact "valid" (List.length (List.filter Fun.id inline));
    exact "cache_hits" (Crypto.Vstage.cache_hits st);
    exact "cache_misses" (Crypto.Vstage.cache_misses st);
  ]

(* --- load: open-loop burst through the shared generator, with admission
   control shedding at the primary. Everything advances on the virtual
   clock from seeded RNGs, so every count — including the rejections —
   is exact. ------------------------------------------------------------ *)

let open_load_rows () =
  let params =
    {
      Replica.pipeline = 1;
      checkpoint_interval = 50;
      max_batch = 2;
      batch_delay_ms = 4.0;
      vc_timeout_ms = 100_000.0;
      variant = Variant.full;
      snapshot_interval = 0;
      verify_domains = 0;
      admission_queue = 16;
    }
  in
  let obs = Obs.passive () in
  let cluster =
    Cluster.make ~seed:11 ~n:4 ~params
      ~latency:(fun _ -> Iaccf_sim.Latency.constant 5.0)
      ~obs ()
  in
  let gen =
    Iaccf_load.Gen.create ~cluster ~sessions:256 ~seed:11
      ~mix:Iaccf_load.Mix.noop
      ~arrival:
        (Iaccf_load.Arrival.Onoff
           { on_rate = 400.0; off_rate = 30.0; on_ms = 150.0; off_ms = 250.0 })
      ()
  in
  Iaccf_load.Gen.start gen ~duration_ms:800.0;
  if not (Iaccf_load.Gen.drain gen ()) then
    fail "open-loop load workload did not drain";
  let s = Iaccf_load.Gen.stats gen in
  if s.Iaccf_load.Gen.ls_offered <> s.Iaccf_load.Gen.ls_committed then
    fail "open-loop accounting broken: %d offered, %d committed"
      s.Iaccf_load.Gen.ls_offered s.Iaccf_load.Gen.ls_committed;
  if Obs.counter_value obs "load.rejected" = 0 then
    fail "open-loop burst never tripped admission control";
  let bench = "regress_load" in
  let series = "onoff burst" in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  [
    exact "offered" s.Iaccf_load.Gen.ls_offered;
    exact "committed" s.Iaccf_load.Gen.ls_committed;
    exact "admitted" (Obs.counter_value obs "load.admitted");
    exact "rejected" (Obs.counter_value obs "load.rejected");
    exact "retries" s.Iaccf_load.Gen.ls_retries;
    exact "sessions_used" s.Iaccf_load.Gen.ls_sessions_used;
    Report.row ~bench ~series ~metric:"queue_peak" ~gate:Report.Exact
      (Obs.gauge_max_value obs "queue.depth");
    Report.row ~bench ~series ~metric:"p50_latency_ms" ~gate:Report.Ms
      (Obs.Histogram.percentile_of_list 0.50 s.Iaccf_load.Gen.ls_latencies_ms);
    Report.row ~bench ~series ~metric:"p99_latency_ms" ~gate:Report.Ms
      (Obs.Histogram.percentile_of_list 0.99 s.Iaccf_load.Gen.ls_latencies_ms);
  ]

(* --- driver ----------------------------------------------------------- *)

let files = (* (emitted file, what writes it) *)
  [ "BENCH_regress_smallbank.json"; "BENCH_regress_statesync.json";
    "BENCH_regress_chaos.json"; "BENCH_regress_crypto.json";
    "BENCH_regress_load.json" ]

let emit ~dir =
  let path f = Filename.concat dir f in
  Report.write_rows
    ~file:(path "BENCH_regress_smallbank.json")
    ~bench:"regress_smallbank"
    (List.concat_map
       (rows_of_result ~bench:"regress_smallbank")
       (smallbank_results ()));
  Report.write_rows
    ~file:(path "BENCH_regress_statesync.json")
    ~bench:"regress_statesync" (statesync_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_chaos.json")
    ~bench:"regress_chaos" (chaos_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_crypto.json")
    ~bench:"regress_crypto" (crypto_rows ());
  Report.write_rows
    ~file:(path "BENCH_regress_load.json")
    ~bench:"regress_load" (open_load_rows ())

let load_rows file =
  match Report.load_file file with
  | Ok rows -> rows
  | Error e -> fail "%s" e

let () =
  let baselines = ref None and write_to = ref None and tolerance = ref None in
  let rec parse = function
    | [] -> ()
    | "--baselines" :: dir :: rest -> baselines := Some dir; parse rest
    | "--write-baselines" :: dir :: rest -> write_to := Some dir; parse rest
    | "--tolerance" :: t :: rest -> tolerance := Some (float_of_string t); parse rest
    | arg :: _ -> fail "unknown argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !write_to with
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      emit ~dir;
      List.iter
        (fun f ->
          match Report.check_file (Filename.concat dir f) with
          | Ok n -> Printf.printf "baseline %s: %d rows\n%!" f n
          | Error e -> fail "%s" e)
        files
  | None ->
      emit ~dir:".";
      (* Schema gate: every emitted file must parse into metric rows. *)
      let current =
        List.concat_map
          (fun f ->
            match Report.check_file f with
            | Ok _ -> load_rows f
            | Error e -> fail "%s" e)
          files
      in
      let dir = Option.value !baselines ~default:"baselines" in
      let baseline =
        List.concat_map
          (fun f ->
            let path = Filename.concat dir f in
            if Sys.file_exists path then load_rows path
            else begin
              Printf.eprintf "bench-regress: no baseline %s (skipping)\n%!" path;
              []
            end)
          files
      in
      let comparisons =
        Report.compare_rows ?tolerance:!tolerance ~baseline ~current ()
      in
      print_string (Report.render_comparison comparisons);
      match Report.regressions comparisons with
      | [] -> Printf.printf "bench-regress: ok (%d metrics)\n%!" (List.length current)
      | rs ->
          Printf.eprintf "bench-regress: %d metric(s) regressed\n%!" (List.length rs);
          exit 1
