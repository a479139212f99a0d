(* Chaos harness driver: runs scenario x seed matrices through the
   accountability oracle and fails loudly with a reproducer line.

     ./test_chaos.exe smoke    one scenario per suite x 3 seeds (@chaos-smoke,
                               part of the default dune runtest)
     ./test_chaos.exe full     the whole catalog x 5 seeds (@chaos)

   Every cell is deterministic in its seed; a FAIL line names the exact
   `iaccf chaos` invocation that replays it. *)

open Iaccf_chaos

let run ~label ~scenarios ~seeds =
  Printf.printf "chaos %s: %d scenarios x %d seeds\n%!" label
    (List.length scenarios) (List.length seeds)
  ;
  let results = Runner.sweep ~scenarios ~seeds () in
  List.iter (fun r -> print_endline (Runner.describe r)) results;
  let failed = Runner.failures results in
  Printf.printf "chaos %s: %d/%d cells passed\n%!" label
    (List.length results - List.length failed)
    (List.length results);
  if failed <> [] then begin
    prerr_endline "chaos: oracle violations:";
    List.iter (fun r -> prerr_endline ("  " ^ Runner.reproducer r)) failed;
    exit 1
  end

(* Digests of the seed-1 metrics snapshot and verdict of the cells that
   drive view change, re-proposal, state transfer, snapshot install and
   cold restore. Two runs of one binary agreeing (below) does not catch a
   refactor that changes what these paths do; comparing against constants
   captured before the change does. A deliberate behaviour change re-pins
   them, and says so. *)
let pinned =
  [
    ( "crash-restart",
      "3494b4f4c8bfba66956e445f226ae174",
      "6088c39d1405343be7b3915fb08633f6" );
    ( "primary-crash",
      "1acb48f6c3a1d8e8c36b3bf72c48a8cb",
      "6088c39d1405343be7b3915fb08633f6" );
    ( "partition-heal",
      "c58d28f03080ac9025ec93b377e0ef7d",
      "6088c39d1405343be7b3915fb08633f6" );
    ( "cold-restart",
      "9c105961e0aaf28d7cc672397e7fb390",
      "497fe3f00ce32d894dd2d87f8d5a5de5" );
    ( "snapshot-cold-restart",
      "679a6e003738becc9e1478356670355a",
      "e8bb88feff376a2c6460fd102823291e" );
    ( "prune-stale-rejoin",
      "0dc739c654498600740e6e850e4bbe18",
      "5c2135964e1366c709ab3658de72b99d" );
  ]

let render_metrics m =
  String.concat "" (List.map (fun (k, v) -> k ^ " " ^ v ^ "\n") m)

let render_verdict = function Ok s -> "ok " ^ s | Error e -> "error " ^ e

(* Every drifted cell is reported before failing, so a deliberate re-pin
   reads all new values from one run. *)
let pin_check () =
  let drifted =
    List.filter
      (fun (name, want_m, want_v) ->
        match Scenarios.find name with
        | None ->
            Printf.eprintf "chaos: pinned scenario %s is missing\n" name;
            true
        | Some sc ->
            let r = Runner.run_one sc ~seed:1 in
            let hex s = Digest.to_hex (Digest.string s) in
            let got_m = hex (render_metrics r.Runner.r_metrics)
            and got_v =
              hex (render_verdict r.Runner.r_verdict.Oracle.vd_result)
            in
            let bad = got_m <> want_m || got_v <> want_v in
            if bad then
              Printf.eprintf
                "chaos: %s seed=1 drifted from its pin: metrics %s (pinned \
                 %s), verdict %s (pinned %s)\n"
                name got_m want_m got_v want_v;
            bad)
      pinned
  in
  if drifted <> [] then exit 1

(* The smoke matrix must also be *deterministic*: the same cell run twice
   must produce the same oracle verdict and byte-identical metrics
   snapshots (the failure-reproducer contract depends on it). The
   pooled-verify cell is checked too: domain scheduling varies between
   runs, so this is the assertion that the verify pool's
   submission-order callbacks keep simulation state — and every
   deterministic metric — byte-identical under a fixed seed.

   This cell is also the regression guard for the socket-transport seam
   (lib/net): the simulator network now carries a gateway hook for
   out-of-process delivery, and its branch must be dead in pure-sim runs
   (it only triggers when a gateway is installed AND the destination is
   unregistered, and it sits before any RNG draw). Any accidental
   behavior change from that refactor shows up here as a verdict or
   metrics diff against the pre-refactor bytes. *)
let determinism_check () =
  let cells =
    List.hd Scenarios.smoke
    :: (match Scenarios.find "pooled-verify" with Some sc -> [ sc ] | None -> [])
  in
  List.iter
    (fun sc ->
      let a = Runner.run_one sc ~seed:1 and b = Runner.run_one sc ~seed:1 in
      if
        a.Runner.r_verdict.Oracle.vd_result <> b.Runner.r_verdict.Oracle.vd_result
      then begin
        Printf.eprintf "chaos: same seed produced different verdicts (%s)\n"
          sc.Scenario.sc_name;
        exit 1
      end;
      if a.Runner.r_metrics <> b.Runner.r_metrics then begin
        Printf.eprintf
          "chaos: same seed produced different metrics snapshots (%s)\n"
          sc.Scenario.sc_name;
        exit 1
      end)
    cells;
  pin_check ()

let () =
  match if Array.length Sys.argv > 1 then Sys.argv.(1) else "smoke" with
  | "smoke" ->
      run ~label:"smoke" ~scenarios:Scenarios.smoke ~seeds:[ 1; 2; 3 ];
      determinism_check ()
  | "full" ->
      run ~label:"full" ~scenarios:Scenarios.all ~seeds:[ 1; 2; 3; 4; 5 ]
  | other ->
      Printf.eprintf "usage: %s [smoke|full] (got %S)\n" Sys.argv.(0) other;
      exit 2
