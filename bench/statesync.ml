(* State-sync benchmarks (the @statesync-bench alias):

   1. In-protocol catch-up cost vs ledger length: a fresh replica joins a
      cluster that has already committed L transactions and syncs through
      the chunked snapshot + suffix protocol; we report wall time, bytes
      moved over the transfer, and how many ledger entries were adopted
      without re-execution.

   2. Cold start, snapshot restore vs full replay: the same persisted
      store is reopened with its durable snapshots present and then with
      them deleted (forcing a genesis replay), timing both.

   Numbers land in EXPERIMENTS.md. *)

open Iaccf_core
module Obs = Iaccf_obs.Obs
module Store = Iaccf_storage.Store
module Ledger = Iaccf_ledger.Ledger
module Report = Iaccf_report.Report

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("statesync-bench: " ^ s); exit 1) fmt

let params = Harness.statesync_params

(* --- 1. catch-up vs ledger length ------------------------------------ *)

let bench_catchup () =
  Printf.printf "catch-up vs ledger length (n=4, C=%d, snapshot every %d)\n"
    params.Replica.checkpoint_interval params.Replica.snapshot_interval;
  Printf.printf "%8s %10s %10s %12s %8s %10s\n" "txs" "entries" "wall s"
    "snap bytes" "chunks" "skipped";
  List.concat_map
    (fun txs ->
      let entries, wall, bytes, chunks, skipped =
        Harness.catchup_run ~txs ~concurrency:32
      in
      Printf.printf "%8d %10d %10.3f %12d %8d %10d\n%!" txs entries wall bytes
        chunks skipped;
      let bench = "statesync" in
      let series = Printf.sprintf "catchup txs=%d" txs in
      let exact metric v =
        Report.row ~bench ~series ~metric ~gate:Report.Exact (float_of_int v)
      in
      [
        exact "ledger_entries" entries;
        exact "snapshot_bytes" bytes;
        exact "chunks" chunks;
        exact "entries_skipped" skipped;
        Report.row ~bench ~series ~metric:"wall_s" ~gate:Report.Info wall;
      ])
    [ 100; 300; 900 ]

(* --- 2. cold start: snapshot restore vs full replay ------------------- *)

let persisted ~dir ~snapshots =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let params = { params with snapshot_interval = (if snapshots then 10 else 0) } in
  let cluster =
    Cluster.make ~seed:7 ~n:4 ~params ~persist:(Store.default_config ~dir) ~obs ()
  in
  (cluster, obs)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let delete_snapshots dir =
  Array.iter
    (fun sub ->
      let d = Filename.concat dir sub in
      if Sys.is_directory d then
        Array.iter
          (fun f ->
            if String.length f >= 9 && String.sub f 0 9 = "snapshot-" then
              Sys.remove (Filename.concat d f))
          (Sys.readdir d))
    (Sys.readdir dir)

let time_restore ~dir ~snapshots =
  let t0 = Unix.gettimeofday () in
  let cluster, obs = persisted ~dir ~snapshots in
  let wall = Unix.gettimeofday () -. t0 in
  let restored = Obs.counter_value obs "statesync.cold.snapshot_restore" in
  let replayed = Obs.counter_value obs "statesync.cold.genesis_replay" in
  Cluster.close_storage cluster;
  (wall, restored, replayed)

let bench_cold_start () =
  let txs = 900 in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-statesync-bench-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let cluster, _ = persisted ~dir ~snapshots:true in
  let client = Cluster.add_client cluster () in
  Harness.drive_counter cluster client ~txs ~concurrency:32;
  let entries = Ledger.length (Replica.ledger (Cluster.replica cluster 0)) in
  Cluster.sync_storage cluster;
  Cluster.close_storage cluster;
  Printf.printf "\ncold start of 4 replicas over %d persisted entries (%d txs)\n"
    entries txs;
  let wall, restored, replayed = time_restore ~dir ~snapshots:true in
  if restored <> 4 || replayed <> 0 then
    fail "snapshot restore path not taken (restored %d, replayed %d)" restored replayed;
  Printf.printf "  snapshot restore: %7.3f s  (replicas from snapshot: %d)\n%!"
    wall restored;
  delete_snapshots dir;
  let wall', restored', replayed' = time_restore ~dir ~snapshots:true in
  if restored' <> 0 || replayed' <> 4 then
    fail "replay path not taken (restored %d, replayed %d)" restored' replayed';
  Printf.printf "  full replay:      %7.3f s  (replicas from genesis:  %d)\n%!"
    wall' replayed';
  if wall' > 0.0 then
    Printf.printf "  speedup:          %7.2fx\n%!" (wall' /. wall);
  let bench = "statesync" in
  let series = "cold_start" in
  [
    Report.row ~bench ~series ~metric:"persisted_entries" ~gate:Report.Exact
      (float_of_int entries);
    Report.row ~bench ~series ~metric:"snapshot_restores" ~gate:Report.Exact
      (float_of_int restored);
    Report.row ~bench ~series ~metric:"genesis_replays" ~gate:Report.Exact
      (float_of_int replayed');
    Report.row ~bench ~series ~metric:"restore_wall_s" ~gate:Report.Info wall;
    Report.row ~bench ~series ~metric:"replay_wall_s" ~gate:Report.Info wall';
  ]

let () =
  let rows = bench_catchup () @ bench_cold_start () in
  Report.write_rows ~file:"BENCH_statesync.json" ~bench:"statesync" rows
