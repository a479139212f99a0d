(* Chaos-overhead guard (the @chaos-overhead alias): routing every
   replica's outbound traffic through an identity intercept — the hook the
   chaos harness's Byzantine wrappers hang off — must not change a
   fault-free run at all. The identity intercept consumes no randomness
   and rewrites nothing, so the two runs must agree *exactly* on virtual
   time, completions, and client-visible outputs; wall-clock overhead gets
   a generous noise bound. *)

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("chaos-overhead: " ^ s); exit 1) fmt

let requests = 30

let () =
  let direct = Harness.intercept_run ~requests ~intercepted:false in
  let wrapped = Harness.intercept_run ~requests ~intercepted:true in
  if wrapped.virtual_ms <> direct.virtual_ms then
    fail "virtual time diverged: direct %.4f ms, intercepted %.4f ms"
      direct.virtual_ms wrapped.virtual_ms;
  if wrapped.completions <> direct.completions then
    fail "completions diverged (direct %d, intercepted %d)"
      (List.length direct.completions)
      (List.length wrapped.completions);
  (* Wall-clock: the intercept is one hashtable probe and a closure call
     per send. Allow 3x to stay robust on noisy CI machines; repeat the
     comparison a few times and take the best ratio so a single scheduler
     hiccup cannot fail the guard. *)
  let best_ratio =
    let rec go n best =
      if n = 0 then best
      else
        let d = (Harness.intercept_run ~requests ~intercepted:false).wall_s in
        let w = (Harness.intercept_run ~requests ~intercepted:true).wall_s in
        let r = if d > 0.0 then w /. d else 1.0 in
        go (n - 1) (min best r)
    in
    go 3 (if direct.wall_s > 0.0 then wrapped.wall_s /. direct.wall_s else 1.0)
  in
  if best_ratio > 3.0 then
    fail "identity intercepts cost %.2fx wall-clock (limit 3x)" best_ratio;
  Printf.printf
    "chaos-overhead ok: %d tx, virtual time identical (%.2f ms), best wall ratio %.2fx\n"
    requests direct.virtual_ms best_ratio;
  let module Report = Iaccf_report.Report in
  let bench = "chaos_overhead" in
  let series = "identity_intercept" in
  Report.write_rows ~file:"BENCH_chaos_overhead.json" ~bench
    [
      Report.row ~bench ~series ~metric:"txs" ~gate:Report.Exact
        (float_of_int requests);
      (* Exact by construction: the guard above already failed if the
         intercepted run's virtual time diverged at all. *)
      Report.row ~bench ~series ~metric:"virtual_ms" ~gate:Report.Exact
        direct.virtual_ms;
      Report.row ~bench ~series ~metric:"best_wall_ratio" ~gate:Report.Info
        best_ratio;
    ]
