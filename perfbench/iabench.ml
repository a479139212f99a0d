(* The repository benchmark.

     iabench --workload NAME --seed N --seconds S --trace 0|1 [--fault F]

   Runs one workload in this process, on one thread, with inline
   signature verification; checks the program's outputs; prints a table
   of every metric (name, value, unit, sample count) and, as the last
   line, one JSON object with the metrics BENCHMARK.json names:
   end-to-end ones with [--trace 0], per-layer ones with [--trace 1].
   Exits 1 if any correctness check failed. [--fault] seeds one fault so
   the self-test can see each check fire. See NOTES.md. *)

module W = Workloads
module Cluster = Iaccf_core.Cluster
module Replica = Iaccf_core.Replica
module Receipt = Iaccf_core.Receipt
module Forge = Iaccf_core.Forge
module Genesis = Iaccf_types.Genesis
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Request = Iaccf_types.Request
module Profile = Iaccf_crypto.Profile
module Obs = Iaccf_obs.Obs

let now = Unix.gettimeofday

(* --- Statistics ------------------------------------------------- *)

(* Nearest-rank percentile. *)
let percentile p xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* The middle value, or the mean of the two middle ones. *)
let median xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The interquartile mean: the mean of what is left when the lowest and
   the highest quarter are dropped. *)
let iq_mean xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = Array.length a in
  let q = n / 4 in
  let mid = Array.sub a q (n - (2 * q)) in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 mid /. float_of_int (Array.length mid)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let per a b = if b = 0 then 0.0 else a /. float_of_int b

(* Peak resident set of this process. *)
let peak_rss_mib () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* --- Report ----------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_n : int }

let metrics : metric list ref = ref []
let checks : (string * bool * string) list ref = ref []
let attempted = ref 0
let failed = ref 0

let metric ?(n = 1) name unit value =
  metrics := { m_name = name; m_value = value; m_unit = unit; m_n = n } :: !metrics

let check name ok detail = checks := (name, ok, detail) :: !checks

(* The JSON line's metrics: per workload in the untraced run (the sim
   ones are BENCHMARK.json's end-to-end list), one list in the traced run
   (BENCHMARK.json's per-layer list; the table also prints
   replica.recovery.us_per_tx, a time that reads exactly 0 on every LAN
   run). *)
let sim_end_to_end_names = [ "commit_tx_s"; "commit_p50_vms"; "commit_p99_vms"; "peak_rss_mib"; "setup_s" ]

let audit_end_to_end_names =
  [ "audit_tx_s"; "receipt_verify_p50_ms"; "receipt_verify_p99_ms"; "peak_rss_mib"; "setup_s" ]

let per_layer =
  [
    "replica.request.self_us_per_tx"; "replica.pre_prepare.self_us_per_tx";
    "replica.prepare.self_us_per_tx"; "replica.commit.self_us_per_tx";
    "replica.msgs_per_tx"; "replica.batch_txs";
    "replica.view_changes"; "replica.fetch_missing_per_tx"; "client.retries_per_tx";
    "crypto.verify_client.us"; "crypto.verify_client.per_tx";
    "crypto.verify_replica.us"; "crypto.verify_replica.per_tx"; "crypto.sign.us";
    "crypto.sign.per_tx"; "crypto.cache_hit_ratio"; "crypto.share";
    "crypto.verify_table_us"; "crypto.verify_notable_us"; "sha256.ns_per_64B";
    "merkle.append_us"; "merkle.path_verify_us"; "ledger.bytes_per_tx";
    "ledger.entries_per_tx"; "kv.apply.us_per_tx"; "kv.state_digest_ms";
    "storage.bytes_per_tx"; "storage.append_us"; "package.read_s"; "audit.s";
    "audit.client_verify_us"; "receipt.bytes"; "net.msgs_per_tx";
    "sched.events_per_tx"; "sched.self_share"; "replica.self_share"; "unattributed_share";
    "failed_frac"; "trace_overhead";
  ]

let print_report wanted =
  let ms = List.rev !metrics in
  Printf.printf "%-34s %14s  %-9s %s\n" "metric" "value" "unit" "samples";
  List.iter
    (fun m -> Printf.printf "%-34s %14.6g  %-9s %d\n" m.m_name m.m_value m.m_unit m.m_n)
    ms;
  List.iter
    (fun (name, ok, detail) ->
      Printf.printf "check %-28s %s  %s\n" name (if ok then "ok" else "FAILED") detail)
    (List.rev !checks);
  let correct = List.for_all (fun (_, ok, _) -> ok) !checks in
  let find name =
    match List.find_opt (fun m -> m.m_name = name) ms with
    | Some m ->
        (* every digit as measured; JSON has no NaN or infinity *)
        let v = if Float.is_finite m.m_value then Printf.sprintf "%.17g" m.m_value else "null" in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v m.m_unit
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 !attempted) !failed
    (String.concat ", " (List.map find wanted));
  correct

(* --- Faults for the self-test ------------------------------------ *)

let fault = ref ""
let faulty name = !fault = name

(* The "audit" fault: an application whose procedures lie about their
   results, so replaying an honest ledger with it must fail. *)
let lying procs =
  List.map
    (fun (name, proc) -> (name, fun ctx args -> Result.map (fun _ -> "0") (proc ctx args)))
    procs

let app_for procs = Iaccf_core.App.create (if faulty "audit" then lying procs else procs)

(* Faults seeded in what the injector receives: "accounting" loses every
   receipt of the plan's first request (the service commits it, the
   injector never counts it); "output" alters its result. *)
let tap (plan : Inject.plan) =
  let first (x : Message.replyx) =
    Iaccf_crypto.Digest32.to_raw (Request.hash x.Message.x_tx.Batch.request) = plan.Inject.keys.(0)
  in
  if faulty "accounting" then Some (fun x -> if first x then None else Some x)
  else if faulty "output" then
    Some
      (fun x ->
        if not (first x) then Some x
        else
          let tx = x.Message.x_tx in
          let result = { tx.Batch.result with Batch.output = Iaccf_core.App.output_error "forged" } in
          Some { x with Message.x_tx = { tx with Batch.result } })
  else None

(* "slow" is not a fault but a fixed extra cost: allocating work on every
   scheduler step of the rerun window (see [sim_untraced]), so the
   self-test can check that the machine-speed reference does not absorb
   a slowdown of the program. *)
let slow_hooks =
  {
    Inject.untimed with
    Inject.step =
      (fun s ->
        ignore (Sys.opaque_identity (List.init 30_000 float_of_int));
        Iaccf_sim.Sched.step s);
  }

(* --- Simulated workloads ----------------------------------------- *)

let run_window ?hooks (w : W.sim) (d : W.deployment) =
  Inject.run ?hooks ?tap:(tap d.W.plan) ~cluster:d.W.cluster ~addr:d.W.addr ~plan:d.W.plan ~retry_ms:W.retry_ms
    ~drain_ms:w.W.drain_ms ~sample_every:16 ~check_output:w.W.check_output ()

let sum f xs = List.fold_left (fun s x -> s + f x) 0 xs
let sumf f xs = List.fold_left (fun s x -> s +. f x) 0.0 xs
(* The counts and virtual latencies a same-seed run must reproduce. *)
let fingerprint o =
  (o.Inject.committed, o.Inject.retries, o.Inject.steps, o.Inject.latencies)

let same_seed_check what os =
  let f = fingerprint (List.hd os) in
  check "same_seed_runs_identical"
    (List.for_all (fun o -> fingerprint o = f) os)
    (Printf.sprintf "%d %s: commits, retries, events, virtual latencies" (List.length os) what)

(* Receipts rejected by [Receipt.verify], of those given. *)
let rejected_receipts cluster receipts =
  let genesis = Cluster.genesis cluster in
  let config = genesis.Genesis.initial_config and service = Genesis.hash genesis in
  let receipts =
    match receipts with
    | r :: rest when faulty "receipt" -> Forge.tamper_tx_output r ~output:"forged" :: rest
    | rs -> rs
  in
  let bad = List.filter (fun r -> Result.is_error (Receipt.verify ~config ~service r)) receipts in
  (List.length bad, List.length receipts)

let receipts_check (bad, total) =
  check "sampled_receipts_verify" (total > 0 && bad = 0)
    (Printf.sprintf "%d of %d sampled receipts rejected" bad total)

let window_rate pick (o, sc, _) = float_of_int o.Inject.committed /. pick sc

(* Audit a replica's ledger with the run's sampled receipts. *)
let honest_audit ~app cluster ~receipts r =
  let genesis = Cluster.genesis cluster and ledger = Replica.ledger r in
  let t0 = now () in
  let v =
    Iaccf_core.Audit.audit (W.auditor ~app genesis) ~receipts ~ledger ~responder:(Replica.id r) ()
  in
  let dt = now () -. t0 in
  check "honest_ledger_audits_ok" (Result.is_ok v)
    (match v with
    | Ok () -> Printf.sprintf "%d receipts" (List.length receipts)
    | Error verdict -> Format.asprintf "%a" Iaccf_core.Audit.pp_verdict verdict);
  dt

let tamper_batches = 40

(* A tampered copy of the deployment's ledger must yield a uPoM. *)
let tamper ~procs (d : W.deployment) =
  match W.tamper_check ~tamper:(not (faulty "tamper")) ~procs ~batches:tamper_batches d with
  | Ok blamed -> check "tampered_copy_yields_upom" true (Printf.sprintf "%d replicas blamed, enforcer accepts" blamed)
  | Error e -> check "tampered_copy_yields_upom" false e

(* End-to-end rows from windows of distinct seeds, each with its timing
   (see Calib) and its count of the plan's requests in the service's
   ledger: the throughput is the interquartile mean of the windows,
   latencies are pooled. *)
let sim_end_to_end (w : W.sim) windows =
  let os = List.map (fun (o, _, _) -> o) windows in
  let ledgered = sum (fun (_, _, l) -> l) windows in
  let total f = sum f os in
  let offered = total (fun o -> o.Inject.offered) and injected = total (fun o -> o.Inject.injected) in
  let committed = total (fun o -> o.Inject.committed) in
  let uncommitted = total (fun o -> o.Inject.outstanding) in
  let lats = List.concat_map (fun o -> Array.to_list o.Inject.latencies) os in
  let late = List.length (List.filter (fun l -> l > w.W.limit_ms) lats) in
  let raw_rates = List.map (window_rate (fun sc -> sc.Calib.raw)) windows in
  let rates = List.map (window_rate (fun sc -> sc.Calib.scaled)) windows in
  (* the service's ledger against the injector's receipts and failures *)
  check "accounting_closes"
    (injected = offered && ledgered = committed && offered = ledgered + uncommitted)
    (Printf.sprintf "offered %d injected %d in the ledger %d receipts %d uncommitted %d" offered
       injected ledgered committed uncommitted);
  let bad = total (fun o -> o.Inject.bad_outputs) in
  check "outputs_valid" (bad = 0) (Printf.sprintf "%d receipts with a wrong result" bad);
  attempted := offered;
  failed := uncommitted;
  let k = List.length windows and n = List.length lats in
  metric ~n:k "commit_tx_s" "tx/s" (iq_mean rates);
  metric ~n:k "commit_tx_s_raw" "tx/s" (iq_mean raw_rates);
  metric ~n "commit_p50_vms" "ms" (percentile 0.5 lats);
  metric ~n "commit_p99_vms" "ms" (percentile 0.99 lats);
  metric ~n:offered "failed_frac" "ratio" (ratio (uncommitted + late) offered);
  metric ~n:offered "retries" "count" (float_of_int (total (fun o -> o.Inject.retries)));
  metric ~n:k "window_wall_s" "s" (median (List.map (fun (_, sc, _) -> sc.Calib.raw) windows));
  metric ~n:k "window_virtual_s" "s" (median (List.map (fun o -> o.Inject.virt_ms /. 1e3) os));
  Printf.printf "windows tx/s, as read: %s; scaled: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.2f") raw_rates))
    (String.concat " " (List.map (Printf.sprintf "%.2f") rates))

(* Windows of distinct sub-seeds per run, and requests per window: at
   [seconds] >= 10 each window is full size and there are 3 per 10 s;
   shorter runs (the self-test) shrink one window. *)
let windows_for ~seconds = max 1 (seconds * 3 / 10)
let count_for (w : W.sim) ~seconds = max 30 (w.W.window * min seconds 10 / 10)

let view_changes cluster =
  List.fold_left (fun a r -> max a (Replica.stats r).Replica.view_changes) 0 (Cluster.replicas cluster)

type sim_run = {
  setup : Calib.scale;
  window : Inject.outcome * Calib.scale * int;  (* with the plan's requests in the ledger *)
  receipts : int * int;  (* rejected, sampled *)
  vcs : int;
}

(* The forensic checks, untimed, on a deployment after its window: its
   ledger with its sampled receipts must audit [Ok], and a tampered copy
   must yield a uPoM. *)
let forensics ~procs (d : W.deployment) ~receipts =
  let cluster = d.W.cluster in
  ignore (honest_audit ~app:(app_for procs) cluster ~receipts (W.ahead cluster));
  tamper ~procs d

(* A run makes windows on fresh deployments of distinct sub-seeds, so one
   run averages over its inputs, plus a rerun of the first sub-seed, which
   must agree with it exactly and whose deployment the forensic checks
   use. Set-up time is the median of all of them: [setup_s] scaled to
   nominal machine speed, [setup_raw_s] as the wall clock read it. *)
let sim_untraced (w : W.sim) ~seed ~seconds =
  let count = count_for w ~seconds and repeats = windows_for ~seconds in
  let seeds = List.init repeats (fun k -> (seed * 1000) + k) in
  let run i sub =
    let rerun = i = repeats in
    let d, setup = Calib.measure (fun () -> W.deploy w ~seed:sub ~count) in
    let d =
      if faulty "determinism" && rerun then
        { d with W.plan = Inject.sub d.W.plan ~pos:1 ~len:(count - 1) }
      else d
    in
    let hooks = if faulty "slow" && rerun then Some slow_hooks else None in
    let o, sc = Calib.measure (fun () -> run_window ?hooks w d) in
    let r =
      {
        setup;
        window = (o, sc, Inject.ledgered ~cluster:d.W.cluster d.W.plan);
        receipts = rejected_receipts d.W.cluster o.Inject.receipts;
        vcs = view_changes d.W.cluster;
      }
    in
    if rerun then forensics ~procs:w.W.procs d ~receipts:o.Inject.receipts;
    W.teardown d;
    r
  in
  let runs = List.mapi run (seeds @ [ List.hd seeds ]) in
  let k = List.length runs in
  metric ~n:k "setup_s" "s" (median (List.map (fun r -> r.setup.Calib.scaled) runs));
  metric ~n:k "setup_raw_s" "s" (median (List.map (fun r -> r.setup.Calib.raw) runs));
  let distinct = List.filteri (fun i _ -> i < repeats) runs in
  let first = (List.hd runs).window and again = (List.nth runs repeats).window in
  let fst3 (o, _, _) = o in
  same_seed_check "runs of the first sub-seed" [ fst3 first; fst3 again ];
  if faulty "slow" then
    Printf.printf "slowed rerun: throughput ratio as read %.3f, scaled %.3f\n"
      (window_rate (fun sc -> sc.Calib.raw) first /. window_rate (fun sc -> sc.Calib.raw) again)
      (window_rate (fun sc -> sc.Calib.scaled) first /. window_rate (fun sc -> sc.Calib.scaled) again);
  sim_end_to_end w (List.map (fun r -> r.window) distinct);
  metric ~n:repeats "view_changes" "count" (float_of_int (sum (fun r -> r.vcs) distinct));
  receipts_check
    (List.fold_left (fun (b, t) r -> (b + fst r.receipts, t + snd r.receipts)) (0, 0) runs)

(* --- Per-layer metrics (traced run) ------------------------------- *)

type snap = { s_profile : Profile.row list; s_counters : (string * int) list; s_stats : Replica.stats list }

let counter_names = [ "net.sent"; "crypto.cache.hit"; "crypto.cache.miss"; "storage.append_bytes" ]

let snapshot cluster (tr : Layers.t) =
  {
    s_profile = Profile.rows tr.Layers.profile;
    s_counters = List.map (fun c -> (c, Obs.counter_value (Cluster.obs cluster) c)) counter_names;
    s_stats = List.map Replica.stats (Cluster.replicas cluster);
  }

(* Profile (count, wall) for an op/principal since [before]. *)
let profile_since (tr : Layers.t) before op principal =
  let pick rows =
    List.fold_left
      (fun (n, w) r ->
        if r.Profile.r_op = op && (principal = None || Some r.Profile.r_principal = principal) then
          (n + r.Profile.r_count, w +. r.Profile.r_wall_s)
        else (n, w))
      (0, 0.0) rows
  in
  let n1, w1 = pick (Profile.rows tr.Layers.profile) and n0, w0 = pick before.s_profile in
  (n1 - n0, w1 -. w0)

let layer_metrics cluster (tr : Layers.t) before ~wall ~committed ~offered ~retries ~steps =
  let us_per_tx w = per (w *. 1e6) committed in
  List.iter
    (fun cls ->
      let a = Layers.acc tr cls in
      if cls <> "recovery" && cls <> "other" then
        metric ~n:a.Layers.n (Printf.sprintf "replica.%s.self_us_per_tx" cls) "us"
          (us_per_tx (a.Layers.wall -. a.Layers.crypto)))
    Layers.classes;
  let rec_ = Layers.acc tr "recovery" in
  metric ~n:rec_.Layers.n "replica.recovery.us_per_tx" "us" (us_per_tx rec_.Layers.wall);
  let dispatches = Layers.dispatch_count tr in
  metric ~n:committed "replica.msgs_per_tx" "msgs" (ratio dispatches committed);
  let after = List.map Replica.stats (Cluster.replicas cluster) in
  let delta f = List.map2 (fun a b -> f a - f b) after before.s_stats in
  let txs = List.fold_left ( + ) 0 (delta (fun s -> s.Replica.txs_committed)) in
  let batches = List.fold_left ( + ) 0 (delta (fun s -> s.Replica.batches_committed)) in
  metric ~n:batches "replica.batch_txs" "txs" (ratio txs batches);
  metric "replica.view_changes" "count"
    (float_of_int (List.fold_left max 0 (delta (fun s -> s.Replica.view_changes))));
  metric ~n:committed "replica.fetch_missing_per_tx" "msgs"
    (ratio tr.Layers.fetch_missing.Layers.n committed);
  metric ~n:offered "client.retries_per_tx" "retries" (ratio retries offered);
  let crypto_row name op principal =
    let n, w = profile_since tr before op principal in
    metric ~n (name ^ ".us") "us" (per (w *. 1e6) n);
    metric ~n:committed (name ^ ".per_tx") "ops" (ratio n committed)
  in
  crypto_row "crypto.verify_client" Profile.Verify (Some Profile.Client_key);
  crypto_row "crypto.verify_replica" Profile.Verify (Some Profile.Replica_key);
  crypto_row "crypto.sign" Profile.Sign None;
  let counter c =
    Obs.counter_value (Cluster.obs cluster) c - List.assoc c before.s_counters
  in
  let hits = counter "crypto.cache.hit" and misses = counter "crypto.cache.miss" in
  metric ~n:(hits + misses) "crypto.cache_hit_ratio" "ratio" (ratio hits (hits + misses));
  let crypto_wall =
    List.fold_left
      (fun s op -> s +. snd (profile_since tr before op None))
      0.0 [ Profile.Sign; Profile.Verify; Profile.Mac ]
  in
  metric "crypto.share" "ratio" (crypto_wall /. wall);
  let apply_n, apply_w = profile_since tr before Profile.Apply None in
  metric ~n:apply_n "kv.apply.us_per_tx" "us" (us_per_tx apply_w);
  metric ~n:committed "net.msgs_per_tx" "msgs" (ratio (counter "net.sent") committed);
  metric ~n:committed "sched.events_per_tx" "events" (ratio steps committed);
  (* Closing the books: replica self time + all crypto + the injector +
     what no span covers = the window's wall time. *)
  let dispatch = Layers.dispatch_wall tr in
  let crypto_in_dispatch =
    List.fold_left (fun s c -> s +. (Layers.acc tr c).Layers.crypto) 0.0 Layers.classes
  in
  let self = dispatch -. crypto_in_dispatch and client = tr.Layers.client.Layers.wall in
  let unattributed = wall -. self -. crypto_wall -. client in
  metric "replica.self_share" "ratio" (self /. wall);
  (* timers (the primary's batch proposals among them), the scheduler and
     the network: scheduler steps minus the handlers they ran *)
  metric "sched.self_share" "ratio" ((tr.Layers.sched.Layers.wall -. dispatch -. client) /. wall);
  metric "unattributed_share" "ratio" (unattributed /. wall);
  Printf.printf
    "books: wall %.3fs = replica self %.3fs + crypto %.3fs + injector %.3fs + unattributed %.3fs\n"
    wall self crypto_wall client unattributed;
  counter "storage.append_bytes"

(* Replays over the ledger and store of the replica furthest ahead,
   which they return. *)
let replay_metrics cluster ~receipts ~committed ~append_bytes =
  let r0 = W.ahead cluster in
  let ledger = Replica.ledger r0 in
  let shape = Replays.shape ledger in
  let ns, bytes = Replays.sha256_ns_per_64b ledger in
  metric ~n:(bytes / 64) "sha256.ns_per_64B" "ns" ns;
  let app_us, app_n, path_us, path_n = Replays.merkle ledger in
  metric ~n:app_n "merkle.append_us" "us" app_us;
  metric ~n:path_n "merkle.path_verify_us" "us" path_us;
  metric ~n:shape.Replays.txs "ledger.bytes_per_tx" "B" (ratio shape.Replays.bytes shape.Replays.txs);
  metric ~n:shape.Replays.txs "ledger.entries_per_tx" "entries"
    (ratio shape.Replays.entries shape.Replays.txs);
  metric "kv.state_digest_ms" "ms" (Replays.state_digest_ms (Replica.store r0));
  let dir = W.fresh_dir "replay-store" in
  let store_us, store_n, disk = Replays.storage ~dir ledger in
  W.rm_rf dir;
  metric ~n:store_n "storage.append_us" "us" store_us;
  (* bytes the replicas appended in the window when they persist, else
     what the replay store took per ledger transaction *)
  if append_bytes > 0 then metric ~n:committed "storage.bytes_per_tx" "B" (ratio append_bytes (4 * committed))
  else metric ~n:shape.Replays.txs "storage.bytes_per_tx" "B" (ratio disk shape.Replays.txs);
  metric "package.read_s" "s" (Replays.package_read_s ~path:(W.fresh_dir "replay-pkg") ledger);
  let cv_us, cv_n = Replays.client_verify_us ledger in
  metric ~n:cv_n "audit.client_verify_us" "us" cv_us;
  let tab, bare, k = Replays.verify_table_vs_not ledger in
  metric ~n:k "crypto.verify_table_us" "us" tab;
  metric ~n:k "crypto.verify_notable_us" "us" bare;
  let sizes = List.map (fun r -> float_of_int (Receipt.size_bytes r)) receipts in
  metric ~n:(List.length sizes) "receipt.bytes" "B" (sumf Fun.id sizes /. float_of_int (max 1 (List.length sizes)));
  r0

let trace_path name seed = Filename.concat Out.dir (Printf.sprintf "trace-%s-%d.json" name seed)

let sim_traced (w : W.sim) ~seed ~seconds =
  let count = count_for w ~seconds in
  (* untraced pass, the reference for trace_overhead and determinism *)
  let t0 = now () in
  let d = W.deploy w ~seed ~count in
  metric "setup_s" "s" (now () -. t0);
  let plain = run_window w d in
  W.teardown d;
  (* traced pass: same seed, handlers and scheduler behind timers *)
  let tr = Layers.create () in
  let d = W.deploy ~profile:tr.Layers.profile w ~seed ~count in
  let before = snapshot d.W.cluster tr in
  Layers.wrap_replicas tr d.W.cluster;
  let o = Layers.window tr (fun () -> run_window ~hooks:(Layers.hooks tr) w d) in
  same_seed_check "passes, untraced and traced" [ plain; o ];
  sim_end_to_end w [ (o, Calib.unscaled o.Inject.wall_s, Inject.ledgered ~cluster:d.W.cluster d.W.plan) ];
  let wall = o.Inject.wall_s and committed = o.Inject.committed in
  let append_bytes =
    layer_metrics d.W.cluster tr before ~wall ~committed ~offered:o.Inject.offered
      ~retries:o.Inject.retries ~steps:o.Inject.steps
  in
  metric "trace_overhead" "ratio" (wall /. plain.Inject.wall_s);
  let receipts = o.Inject.receipts in
  receipts_check (rejected_receipts d.W.cluster receipts);
  let r = replay_metrics d.W.cluster ~receipts ~committed ~append_bytes in
  metric "audit.s" "s" (honest_audit ~app:(app_for w.W.procs) d.W.cluster ~receipts r);
  Layers.write_trace tr (trace_path w.W.name seed);
  W.teardown d

(* --- Offline audit ------------------------------------------------ *)

(* The auditor's window: rounds over the package until [seconds] pass. *)
let audit_window ?stager ~seconds path =
  let app = app_for Iaccf_app.Smallbank.procedures in
  let t0 = now () in
  let rec go acc =
    let acc = W.audit_round ?stager ~tamper_receipt:(faulty "receipt") ~app path :: acc in
    if now () -. t0 >= float_of_int seconds then List.rev acc else go acc
  in
  go []

(* End-to-end rows from the rounds, scaled to nominal machine speed and
   as read (see Calib); each row is the median round. *)
let audit_end_to_end rounds =
  let txs = sum (fun r -> r.W.ledger_txs) rounds in
  let per_round f = median (List.map f rounds) in
  let pct p r = percentile p r.W.verify_ms in
  let scaled_pct p r = percentile p r.W.verify_scaled_ms in
  let rate pick r =
    float_of_int r.W.ledger_txs /. (pick r.W.load_s +. pick r.W.audit_s)
  in
  let rates = List.map (rate fst) rounds and scaled = List.map (rate snd) rounds in
  let rejected = sum (fun r -> r.W.rejected) rounds in
  let bad_verdicts = List.filter (fun r -> Result.is_error r.W.verdict) rounds in
  let verified = sum (fun r -> List.length r.W.verify_ms) rounds in
  let k = List.length rounds in
  let per_rnd = verified / max 1 k in
  attempted := verified + k;
  failed := rejected + List.length bad_verdicts;
  check "receipts_verify" (rejected = 0 && verified > 0)
    (Printf.sprintf "%d of %d rejected" rejected verified);
  check "honest_package_audits_ok" (bad_verdicts = [])
    (match bad_verdicts with
    | [] -> Printf.sprintf "%d rounds" k
    | r :: _ -> (
        match r.W.verdict with
        | Error v -> Format.asprintf "%a" Iaccf_core.Audit.pp_verdict v
        | Ok () -> ""));
  metric ~n:k "audit_tx_s" "tx/s" (median scaled);
  metric ~n:k "audit_tx_s_raw" "tx/s" (median rates);
  metric ~n:txs "audit_ledger_txs" "txs" (float_of_int txs);
  metric ~n:per_rnd "receipt_verify_p50_ms" "ms" (per_round (scaled_pct 0.5));
  metric ~n:per_rnd "receipt_verify_p99_ms" "ms" (per_round (scaled_pct 0.99));
  metric ~n:per_rnd "receipt_verify_p50_ms_raw" "ms" (per_round (pct 0.5));
  metric ~n:per_rnd "receipt_verify_p99_ms_raw" "ms" (per_round (pct 0.99));
  metric ~n:!attempted "failed_frac" "ratio" (ratio !failed !attempted);
  Printf.printf "rounds tx/s, as read: %s; scaled: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") rates))
    (String.concat " " (List.map (Printf.sprintf "%.1f") scaled))

(* Set up [k] times and hand every deployment to [use] in turn; set-up
   time is the median, as read and scaled. *)
let setups ~k deploy use =
  let times =
    List.init k (fun i ->
        let d, sc = Calib.measure deploy in
        use i d;
        (sc.Calib.raw, sc.Calib.scaled))
  in
  metric ~n:k "setup_s" "s" (median (List.map snd times));
  metric ~n:k "setup_raw_s" "s" (median (List.map fst times))

let audit_count ~seconds = max 100 (W.audit_receipts_per_s * seconds)

let audit_untraced ~seed ~seconds =
  let count = audit_count ~seconds in
  let packages = ref [] in
  setups ~k:3
    (fun () -> W.audit_deploy ~seed ~count ())
    (fun _ p -> packages := p :: !packages);
  (* the three set-ups ran the same seed: identical package files *)
  let read p = In_channel.with_open_bin p.W.path In_channel.input_all in
  let pkg = List.hd !packages in
  let bytes = List.map read !packages in
  let bytes = if faulty "determinism" then "" :: List.tl bytes else bytes in
  check "same_seed_runs_identical"
    (List.for_all (fun b -> b = List.hd bytes) bytes)
    "three set-ups wrote byte-identical packages";
  List.iter (fun p -> if p != pkg then (Sys.remove p.W.path; W.teardown p.W.source)) !packages;
  let rounds = audit_window ~seconds pkg.W.path in
  audit_end_to_end rounds;
  tamper ~procs:Iaccf_app.Smallbank.procedures pkg.W.source;
  Sys.remove pkg.W.path;
  W.teardown pkg.W.source

let audit_traced ~seed ~seconds =
  let count = audit_count ~seconds in
  (* the source service runs traced: its replicas give the replica,
     crypto and sim rows *)
  let tr = Layers.create () in
  let snap = ref None in
  let t0 = now () in
  let pkg =
    W.audit_deploy ~hooks:(Layers.hooks tr) ~profile:tr.Layers.profile
      ~around:(fun d window ->
        snap := Some (snapshot d.W.cluster tr);
        Layers.wrap_replicas tr d.W.cluster;
        Layers.window tr window)
      ~seed ~count ()
  in
  metric "setup_s" "s" (now () -. t0);
  let o = pkg.W.window and cluster = pkg.W.source.W.cluster in
  let append_bytes =
    layer_metrics cluster tr (Option.get !snap) ~wall:o.Inject.wall_s ~committed:o.Inject.committed
      ~offered:o.Inject.offered ~retries:o.Inject.retries ~steps:o.Inject.steps
  in
  ignore (replay_metrics cluster ~receipts:o.Inject.receipts ~committed:o.Inject.committed ~append_bytes);
  (* the auditor's window: one untraced round, then traced rounds *)
  let plain = W.audit_round ~app:(W.audit_app ()) pkg.W.path in
  let stager =
    {
      W.stage =
        (fun name f ->
          Obs.span_begin tr.Layers.trace ~node:(-2) ~cat:"bench" ~name ~id:"auditor"
            ~args:[ ("parent", "window") ] ();
          let r, _, dt = Calib.timed f in
          Obs.span_end tr.Layers.trace ~node:(-2) ~cat:"bench" ~name ~id:"auditor" ();
          (r, Calib.unscaled dt));
    }
  in
  let rounds = Layers.window tr (fun () -> audit_window ~stager ~seconds:1 pkg.W.path) in
  audit_end_to_end rounds;
  let wall r = fst r.W.load_s +. fst r.W.audit_s +. (sumf Fun.id r.W.verify_ms /. 1e3) in
  metric "trace_overhead" "ratio" (wall (List.hd rounds) /. wall plain);
  metric ~n:(List.length rounds) "audit.s" "s" (median (List.map (fun r -> fst r.W.audit_s) rounds));
  tamper ~procs:Iaccf_app.Smallbank.procedures pkg.W.source;
  Layers.write_trace tr (trace_path "audit-replay" seed);
  Sys.remove pkg.W.path;
  W.teardown pkg.W.source

(* --- Main --------------------------------------------------------- *)

let sims = [ W.smallbank_wan; W.smallbank_lan; W.blob_lan ]

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--reference" then Calib.reference_main ();
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME smallbank-wan | smallbank-lan | blob-lan | audit-replay");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--fault", Arg.Set_string fault, "F seed a fault (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "iabench --workload NAME --seed N --seconds S --trace 0|1";
  Out.ensure ();
  if !trace = 0 then Calib.start ();
  let traced = !trace = 1 in
  let end_to_end =
    match (List.find_opt (fun w -> w.W.name = !workload) sims, !workload) with
    | Some w, _ ->
        if traced then sim_traced w ~seed:!seed ~seconds:!seconds
        else sim_untraced w ~seed:!seed ~seconds:!seconds;
        sim_end_to_end_names
    | None, "audit-replay" ->
        if traced then audit_traced ~seed:!seed ~seconds:!seconds
        else audit_untraced ~seed:!seed ~seconds:!seconds;
        audit_end_to_end_names
    | None, other ->
        prerr_endline ("unknown workload: " ^ other);
        exit 2
  in
  metric "peak_rss_mib" "MiB" (peak_rss_mib ());
  if not (print_report (if traced then per_layer else end_to_end)) then exit 1
