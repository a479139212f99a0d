(* @crypto-bench: the signature-verification pipeline microbench.

   The headline comparison mirrors the replica hot path this PR rewires:
   every client signature is checked ~3 times per lifecycle — once at
   delivery, once by the audit bulk re-check, once by observer suffix
   revalidation. Inline, that is three full Schnorr.verify calls on an
   untabled key; through the batched Vstage (4 domains) it is one
   accelerated verification (fixed-base tables, pool dispatch) plus two
   LRU cache hits. speedup_batched_vs_inline is the acceptance number
   (>= 2x); it holds even on a single-CPU host, where the domain fan-out
   adds no parallelism and the win is purely tables + cache.

   Component microbenches (inline / pooled / tabled / cached throughput
   on a one-shot job mix) are also reported, informationally — on a
   single CPU the pooled figure is *below* inline (queue overhead with no
   parallel hardware), which is exactly why the stage keeps the cache and
   tables in front of the pool.

   Per-layer rows (series "layers", Info) time the costs underneath:
   field mul and sqr, SHA-256 of 64 bytes, SHA-256 throughput over a
   1 MiB buffer, sign, and verify with and without a fixed-base table,
   each the median of 7 timed loops. The field rows time the kernel
   named in the file's "field_kernel" field. The SHA-256 rows use the
   kernel this CPU selected (named in the file's "sha256_kernel" field);
   sha256_ocaml_MBps times the portable OCaml kernel, the fallback, on
   the same buffer.

   Writes BENCH_crypto.json through the report layer's row emitter:
   deterministic counts gate Exact, wall-clock throughputs are Info. Not
   part of the default @runtest (wall-clock heavy); run with
   `dune build @crypto-bench`, or `dune exec bench/crypto.exe` from the
   repo root to keep the JSON. *)

open Iaccf_crypto
module Report = Iaccf_report.Report

let n_keys = 8
let n_jobs = 256
let domains = 4
let lifecycle_checks = 3 (* delivery + audit re-check + observer revalidation *)

let make_keys prefix =
  Array.init n_keys (fun i -> Schnorr.keypair_of_seed (Printf.sprintf "%s-%d" prefix i))

(* A fixed job mix over [keys]: round-robin keys, every 16th signature
   corrupted so the reject path is exercised too. Fully deterministic. *)
let make_jobs keys =
  List.init n_jobs (fun i ->
      let sk, pk = keys.(i mod n_keys) in
      let digest = Sha256.digest (Printf.sprintf "msg-%d" i) in
      let signature =
        if i mod 16 = 15 then String.make 64 '\x2a' else Schnorr.sign sk digest
      in
      { Parverify.j_pk = pk; j_digest = digest; j_signature = signature })

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let tx_s n wall = if wall > 0.0 then float_of_int n /. wall else 0.0

(* --- pipeline: 3 lifecycle checks per signature, inline vs staged ----- *)

let pipeline_rows () =
  let jobs = make_jobs (make_keys "pipe-inline") in
  let inline, wall_inline =
    time (fun () ->
        List.init lifecycle_checks (fun _ -> List.map Parverify.run_job jobs)
        |> List.hd)
  in
  (* The staged run gets its own untabled key values (tables are per-value,
     so the inline baseline above stays unaccelerated). *)
  let staged_keys = make_keys "pipe-inline" in
  let staged_jobs =
    List.map2
      (fun j i ->
        { j with Parverify.j_pk = snd staged_keys.(i mod n_keys) })
      jobs
      (List.init n_jobs Fun.id)
  in
  let st = Vstage.create ~domains () in
  (* Replica keys are registered at startup; chatty client keys earn their
     tables after a few uses. Register here like the replica does. *)
  Array.iter (fun (_, pk) -> ignore (Vstage.register st pk)) staged_keys;
  let staged, wall_staged =
    time (fun () ->
        (* delivery: batched submit/flush, one flush per 16-message batch *)
        let out = ref [] in
        List.iteri
          (fun i j ->
            Vstage.submit st ~cls:"bench" ~principal:Profile.Client_key
              j.Parverify.j_pk j.Parverify.j_digest
              ~signature:j.Parverify.j_signature (fun ok -> out := ok :: !out);
            if i mod 16 = 15 then Vstage.flush st)
          staged_jobs;
        Vstage.flush st;
        (* audit bulk re-check + observer revalidation: cache hits *)
        for _ = 2 to lifecycle_checks do
          List.iter
            (fun j ->
              ignore
                (Vstage.verify_now st ~cls:"bench" ~principal:Profile.Client_key
                   j.Parverify.j_pk j.Parverify.j_digest
                   ~signature:j.Parverify.j_signature))
            staged_jobs
        done;
        List.rev !out)
  in
  if inline <> staged then begin
    prerr_endline "crypto-bench: staged pipeline diverged from inline";
    exit 1
  end;
  let valid = List.length (List.filter Fun.id inline) in
  let checks = n_jobs * lifecycle_checks in
  let speedup = if wall_staged > 0.0 then wall_inline /. wall_staged else 0.0 in
  Printf.printf
    "crypto-bench pipeline: %d sigs x %d checks (%d valid), %d domains\n"
    n_jobs lifecycle_checks valid domains;
  Printf.printf "  inline  %8.1f checks/s  (%.3f s)\n" (tx_s checks wall_inline)
    wall_inline;
  Printf.printf "  staged  %8.1f checks/s  (%.3f s)\n" (tx_s checks wall_staged)
    wall_staged;
  Printf.printf "  batched vs inline speedup: %.2fx\n%!" speedup;
  let bench = "crypto" in
  let series =
    Printf.sprintf "pipeline jobs=%d checks=%d keys=%d" n_jobs lifecycle_checks
      n_keys
  in
  let exact metric v =
    Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
  in
  let info metric v = Report.row ~bench ~series ~metric ~gate:Report.Info v in
  [
    exact "jobs" n_jobs;
    exact "valid" valid;
    exact "domains" domains;
    exact "cache_hits" (Vstage.cache_hits st);
    exact "cache_misses" (Vstage.cache_misses st);
    info "inline_checks_s" (tx_s checks wall_inline);
    info "staged_checks_s" (tx_s checks wall_staged);
    info "speedup_batched_vs_inline" speedup;
  ]

(* --- components: one-shot job mix through each acceleration alone ----- *)

let component_rows () =
  let jobs = make_jobs (make_keys "bench") in
  (* Spawning worker domains is one-time process cost, not per-batch cost;
     warm the pool so the pooled figure measures steady state. *)
  ignore (Parverify.verify_batch_results ~domains jobs);
  let inline, wall_inline = time (fun () -> List.map Parverify.run_job jobs) in
  let pooled, wall_pooled =
    time (fun () -> Parverify.verify_batch_results ~domains jobs)
  in
  if inline <> pooled then begin
    prerr_endline "crypto-bench: pooled verification diverged from inline";
    exit 1
  end;
  let (), wall_precompute =
    time (fun () ->
        List.iter
          (fun j ->
            if not (Schnorr.has_table j.Parverify.j_pk) then
              Schnorr.precompute j.Parverify.j_pk)
          jobs)
  in
  let tabled, wall_tabled = time (fun () -> List.map Parverify.run_job jobs) in
  if inline <> tabled then begin
    prerr_endline "crypto-bench: tabled verification diverged from inline";
    exit 1
  end;
  (* Warm a result cache with one pass, then measure the hit path. *)
  let st = Vstage.create ~domains:0 () in
  let verify_all () =
    List.map
      (fun j ->
        Vstage.verify_now st ~cls:"bench" ~principal:Profile.Client_key
          j.Parverify.j_pk j.Parverify.j_digest
          ~signature:j.Parverify.j_signature)
      jobs
  in
  ignore (verify_all ());
  let cached, wall_cached = time verify_all in
  if inline <> cached then begin
    prerr_endline "crypto-bench: cached verification diverged from inline";
    exit 1
  end;
  Printf.printf "crypto-bench components: %d one-shot jobs\n" n_jobs;
  let line label wall =
    Printf.printf "  %-22s %10.1f verifies/s  (%.3f s)\n" label
      (tx_s n_jobs wall) wall
  in
  line "inline" wall_inline;
  line (Printf.sprintf "pooled (%d domains)" domains) wall_pooled;
  line "tabled (fixed-base)" wall_tabled;
  line "cached (LRU hits)" wall_cached;
  Printf.printf "  precompute of %d keys    %.3f s\n%!" n_keys wall_precompute;
  let bench = "crypto" in
  let series = Printf.sprintf "components jobs=%d keys=%d" n_jobs n_keys in
  let info metric v = Report.row ~bench ~series ~metric ~gate:Report.Info v in
  [
    info "inline_verifies_s" (tx_s n_jobs wall_inline);
    info "pooled_verifies_s" (tx_s n_jobs wall_pooled);
    info "tabled_verifies_s" (tx_s n_jobs wall_tabled);
    info "cached_verifies_s" (tx_s n_jobs wall_cached);
    info "precompute_wall_s" wall_precompute;
  ]

(* --- layers: per-operation cost of each crypto layer ------------------ *)

(* Median over [trials] timed loops of [iters] calls, in ns per call: the
   spread between trials is scheduler noise, not the code. *)
let ns_per_op ~iters f =
  let trials = 7 in
  let per_trial =
    Array.init trials (fun _ ->
        let (), wall =
          time (fun () ->
              for i = 0 to iters - 1 do
                f i
              done)
        in
        wall *. 1e9 /. float_of_int iters)
  in
  Array.sort compare per_trial;
  per_trial.(trials / 2)

let layer_rows () =
  let a = Fe.of_bytes (Sha256.digest "fe-a") and b = Fe.of_bytes (Sha256.digest "fe-b") in
  let fe_mul = ns_per_op ~iters:100_000 (fun _ -> Fe.mul a a b) in
  let fe_sqr = ns_per_op ~iters:100_000 (fun _ -> Fe.sqr a a) in
  let block = String.make 64 'x' in
  let sha = ns_per_op ~iters:20_000 (fun _ -> ignore (Sha256.digest block)) in
  let mib = String.make (1 lsl 20) 'x' in
  let mbps digest =
    float_of_int (String.length mib) /. ns_per_op ~iters:4 (fun _ -> ignore (digest mib)) *. 1e3
  in
  let sha_mbps = mbps Sha256.digest in
  let sha_ocaml_mbps =
    mbps (fun s ->
        let ctx = Sha256.Kernel.init Sha256.Kernel.ocaml_blocks in
        Sha256.feed ctx s;
        Sha256.finalize ctx)
  in
  let sk, pk = Schnorr.keypair_of_seed "layers" in
  let digests = Array.init 64 (fun i -> Sha256.digest (string_of_int i)) in
  let sigs = Array.map (Schnorr.sign sk) digests in
  let sign =
    ns_per_op ~iters:64 (fun i -> ignore (Schnorr.sign sk digests.(i))) /. 1e3
  in
  let verify () =
    ns_per_op ~iters:64 (fun i ->
        if not (Schnorr.verify pk digests.(i) ~signature:sigs.(i)) then begin
          prerr_endline "crypto-bench: layer verification failed";
          exit 1
        end)
    /. 1e3
  in
  let untabled = verify () in
  Schnorr.precompute pk;
  let tabled = verify () in
  Printf.printf "crypto-bench layers (median of 7 trials)\n";
  Printf.printf "  field (%s) mul %8.1f ns   sqr %8.1f ns\n" Fe.kernel fe_mul fe_sqr;
  Printf.printf "  sha256 (%s) /64B %8.1f ns   %6.1f MB/s   ocaml kernel %6.1f MB/s\n"
    (Sha256.Kernel.name Sha256.Kernel.selected)
    sha sha_mbps sha_ocaml_mbps;
  Printf.printf "  sign %8.1f us   verify untabled %8.1f us   tabled %8.1f us\n%!"
    sign untabled tabled;
  let info metric v = Report.row ~bench:"crypto" ~series:"layers" ~metric ~gate:Report.Info v in
  [
    info "fe_mul_ns" fe_mul;
    info "fe_sqr_ns" fe_sqr;
    info "sha256_64B_ns" sha;
    info "sha256_MBps" sha_mbps;
    info "sha256_ocaml_MBps" sha_ocaml_mbps;
    info "sign_us" sign;
    info "verify_untabled_us" untabled;
    info "verify_tabled_us" tabled;
  ]

let () =
  let pipeline = pipeline_rows () in
  let components = component_rows () in
  let rows = pipeline @ components @ layer_rows () in
  Report.write_rows ~file:"BENCH_crypto.json" ~bench:"crypto"
    ~meta:
      [ ("sha256_kernel", Sha256.Kernel.name Sha256.Kernel.selected); ("field_kernel", Fe.kernel) ]
    rows
