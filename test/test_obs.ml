(* The observability subsystem: exact nearest-rank percentiles at the
   edges, byte-deterministic metrics snapshots, and the trace-span
   completeness property — every committed batch has a full ordered
   phase span with no orphan begin/end events, even when a view change
   rolls batches back and re-proposes them. *)

open Iaccf_core
module Obs = Iaccf_obs.Obs
module Critical_path = Iaccf_obs.Critical_path
module Json = Iaccf_util.Json
module Request = Iaccf_types.Request
module Schnorr = Iaccf_crypto.Schnorr
module D = Iaccf_crypto.Digest32
module Sched = Iaccf_sim.Sched
module Network = Iaccf_sim.Network
module Latency = Iaccf_sim.Latency

let check = Alcotest.check

(* Fixed QCheck state, as in test_lincheck: the sampled seeds are part of
   the test, not a per-run lottery. *)
let qtest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 409 |]) t

(* --------------------------------------------------------------- *)
(* Percentiles                                                     *)

let hist samples =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) samples;
  h

let test_percentile_empty () =
  let h = hist [] in
  check (Alcotest.float 0.0) "p50 of empty" 0.0 (Obs.Histogram.percentile h 0.5);
  check (Alcotest.float 0.0) "p100 of empty" 0.0 (Obs.Histogram.percentile h 1.0);
  check (Alcotest.float 0.0) "of empty list" 0.0 (Obs.Histogram.percentile_of_list 0.99 [])

let test_percentile_single () =
  let h = hist [ 42.0 ] in
  List.iter
    (fun p ->
      check (Alcotest.float 0.0)
        (Printf.sprintf "p%.2f of single" p)
        42.0
        (Obs.Histogram.percentile h p))
    [ 0.0; 0.01; 0.5; 0.99; 1.0 ]

let test_percentile_nearest_rank () =
  (* Ten samples: rank = ceil (p * 10), 1-based. *)
  let h = hist (List.init 10 (fun i -> float_of_int (i + 1))) in
  check (Alcotest.float 0.0) "p50" 5.0 (Obs.Histogram.percentile h 0.50);
  check (Alcotest.float 0.0) "p90" 9.0 (Obs.Histogram.percentile h 0.90);
  check (Alcotest.float 0.0) "p99" 10.0 (Obs.Histogram.percentile h 0.99);
  check (Alcotest.float 0.0) "p100 is the max" 10.0 (Obs.Histogram.percentile h 1.0);
  check (Alcotest.float 0.0) "p<=0 is the min" 1.0 (Obs.Histogram.percentile h (-0.5));
  check (Alcotest.float 0.0) "list agrees" 9.0
    (Obs.Histogram.percentile_of_list 0.90 (List.init 10 (fun i -> float_of_int (10 - i))))

(* --------------------------------------------------------------- *)
(* Snapshot: golden rendering, parser, determinism                 *)

let test_snapshot_golden () =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  let a = Obs.counter obs "a" in
  Obs.incr a;
  Obs.incr a;
  Obs.set_gauge (Obs.gauge obs "g") 1.5;
  let h = Obs.histogram obs ~buckets:[| 1.0; 2.0 |] "h" in
  Obs.Histogram.observe h 0.5;
  Obs.Histogram.observe h 1.5;
  let expected =
    String.concat "\n"
      [
        "a 2";
        "g 1.500";
        "h.bucket.le_1 1";
        "h.bucket.le_2 2";
        "h.bucket.le_inf 2";
        "h.count 2";
        "h.max 1.500";
        "h.mean 1";
        "h.min 0.500";
        "h.p50 0.500";
        "h.p90 1.500";
        "h.p99 1.500";
        "h.sum 2";
        "";
      ]
  in
  check Alcotest.string "golden snapshot" expected (Obs.snapshot_string obs)

let test_snapshot_roundtrip () =
  let obs = Obs.create ~metrics:true ~tracing:false () in
  Obs.add (Obs.counter obs "x.y") 7;
  Obs.Histogram.observe (Obs.histogram obs "lat") 3.25;
  check
    Alcotest.(list (pair string string))
    "parse inverts render" (Obs.snapshot obs)
    (Obs.parse_snapshot (Obs.snapshot_string obs));
  Alcotest.check_raises "malformed line"
    (Failure "Obs.parse_snapshot: malformed line: no-value-here") (fun () ->
      ignore (Obs.parse_snapshot "a 1\nno-value-here\n"))

(* A small instrumented workload on a real cluster. *)
let instrumented_run ?(seed = 7) ?(tracing = false) ?(view_change = false) () =
  let obs = Obs.create ~metrics:true ~tracing () in
  let cluster = Cluster.make ~seed ~n:4 ~obs () in
  let client = Cluster.add_client cluster () in
  let completed = ref 0 in
  let submit n =
    for i = 1 to n do
      Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
        ~on_complete:(fun _ -> incr completed)
        ()
    done
  in
  submit 6;
  let ok1 =
    Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () -> !completed >= 6)
  in
  if view_change then Replica.stop (Cluster.replica cluster 0);
  submit 4;
  let ok2 =
    Cluster.run_until cluster ~timeout_ms:600_000.0 (fun () -> !completed >= 10)
  in
  (* Let the backups finish committing the tail so no span is open merely
     because the scheduler stopped mid-batch. *)
  Cluster.run cluster ~ms:5_000.0;
  (obs, ok1 && ok2)

let test_snapshot_deterministic () =
  let snap () =
    let obs, ok = instrumented_run ~seed:11 () in
    check Alcotest.bool "workload completed" true ok;
    Obs.snapshot_string obs
  in
  let a = snap () and b = snap () in
  check Alcotest.string "same seed, byte-identical snapshot" a b;
  check Alcotest.bool "snapshot is non-trivial" true (String.length a > 500)

let test_counter_invariants () =
  let obs, ok = instrumented_run ~seed:13 () in
  check Alcotest.bool "workload completed" true ok;
  for id = 0 to 3 do
    let c name = Obs.counter_value obs (Printf.sprintf "replica.%d.%s" id name) in
    check Alcotest.bool
      (Printf.sprintf "replica %d commits <= receives" id)
      true
      (c "requests_committed" <= c "requests_received");
    check Alcotest.bool (Printf.sprintf "replica %d committed" id) true
      (c "requests_committed" > 0)
  done;
  check Alcotest.bool "client conservation" true
    (Obs.counter_value obs "client.completed" <= Obs.counter_value obs "client.submitted")

(* --------------------------------------------------------------- *)
(* Trace-span completeness                                         *)

(* Every span key (node, cat, name, id) must alternate begin/end in
   emission order and close by the end of the run. *)
let check_span_parity events =
  let open_spans = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let k = (e.Obs.ev_node, e.Obs.ev_cat, e.Obs.ev_name, e.Obs.ev_id) in
      match e.Obs.ev_ph with
      | Obs.Span_begin ->
          if Hashtbl.mem open_spans k then
            QCheck.Test.fail_reportf "duplicate begin for %s/%s on node %d"
              e.Obs.ev_name e.Obs.ev_id e.Obs.ev_node;
          Hashtbl.replace open_spans k ()
      | Obs.Span_end ->
          if not (Hashtbl.mem open_spans k) then
            QCheck.Test.fail_reportf "end without begin for %s/%s on node %d"
              e.Obs.ev_name e.Obs.ev_id e.Obs.ev_node;
          Hashtbl.remove open_spans k
      | Obs.Instant | Obs.Flow_start | Obs.Flow_finish -> ())
    events;
  Hashtbl.iter
    (fun (node, _, name, id) () ->
      QCheck.Test.fail_reportf "orphan begin for %s/%s on node %d" name id node)
    open_spans

let cancelled e = List.mem_assoc "cancelled" e.Obs.ev_args

(* The span sequence of one batch on one node is blocks of
     consensus[ phase.prepare [phase.commit] ]consensus
   — each block either cancelled by a view change or ending in a commit.
   A batch may have several complete blocks: a new view can roll a node
   back below its locally committed prefix, and the re-proposed batch
   (same g_root, Alg. 2) runs consensus again. For a batch the node
   reported committed, the last block must be a complete, uncancelled
   prepare+commit. *)
let rec check_blocks ~loc = function
  | [] -> QCheck.Test.fail_reportf "%s: committed batch has no span blocks" loc
  | cb :: pb :: pe :: rest -> (
      let name e = e.Obs.ev_name and ph e = e.Obs.ev_ph in
      if
        not
          (ph cb = Obs.Span_begin && name cb = "consensus"
          && ph pb = Obs.Span_begin
          && name pb = "phase.prepare"
          && ph pe = Obs.Span_end
          && name pe = "phase.prepare")
      then QCheck.Test.fail_reportf "%s: malformed block head" loc;
      match rest with
      | ce :: rest' when ph ce = Obs.Span_end && name ce = "consensus" ->
          (* Rolled back before the prepare quorum. *)
          if not (cancelled pe && cancelled ce) then
            QCheck.Test.fail_reportf "%s: truncated block not cancelled" loc;
          if rest' = [] then
            QCheck.Test.fail_reportf "%s: committed batch ends cancelled" loc;
          check_blocks ~loc rest'
      | cmb :: cme :: ce :: rest'
        when ph cmb = Obs.Span_begin
             && name cmb = "phase.commit"
             && ph cme = Obs.Span_end
             && name cme = "phase.commit"
             && ph ce = Obs.Span_end
             && name ce = "consensus" ->
          if cancelled cme <> cancelled ce then
            QCheck.Test.fail_reportf "%s: half-cancelled block" loc;
          if rest' = [] then begin
            if cancelled ce then
              QCheck.Test.fail_reportf "%s: committed batch ends cancelled" loc
          end
          else check_blocks ~loc rest'
      | _ -> QCheck.Test.fail_reportf "%s: malformed block tail" loc)
  | _ -> QCheck.Test.fail_reportf "%s: dangling span events" loc

let check_committed_batches events =
  let committed =
    List.filter_map
      (fun e ->
        if e.Obs.ev_ph = Obs.Instant && e.Obs.ev_name = "batch.committed" then
          Some (e.Obs.ev_node, e.Obs.ev_id)
        else None)
      events
  in
  if committed = [] then QCheck.Test.fail_report "no batch committed anywhere";
  List.iter
    (fun (node, id) ->
      let spans =
        List.filter
          (fun e ->
            e.Obs.ev_node = node && e.Obs.ev_cat = "batch" && e.Obs.ev_id = id
            && e.Obs.ev_ph <> Obs.Instant)
          events
      in
      check_blocks ~loc:(Printf.sprintf "batch %s on node %d" id node) spans)
    committed

(* Every request the client saw complete has a balanced end-to-end span. *)
let check_request_spans events completed =
  let count ph =
    List.length
      (List.filter
         (fun e -> e.Obs.ev_ph = ph && e.Obs.ev_cat = "request" && e.Obs.ev_name = "e2e")
         events)
  in
  if count Obs.Span_begin <> completed || count Obs.Span_end <> completed then
    QCheck.Test.fail_reportf "request spans %d/%d for %d completions"
      (count Obs.Span_begin) (count Obs.Span_end) completed

(* Per (name, id): never more finishes than starts at any prefix of the
   event stream; an unmatched trailing start can only come from a message
   still in flight when the run's horizon cut off. *)
let check_flow_prefix events =
  let tbl = Hashtbl.create 64 in
  let get k = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0) in
  List.iter
    (fun e ->
      let k = (e.Obs.ev_name, e.Obs.ev_id) in
      match e.Obs.ev_ph with
      | Obs.Flow_start ->
          let s, f = get k in
          Hashtbl.replace tbl k (s + 1, f)
      | Obs.Flow_finish ->
          let s, f = get k in
          if f + 1 > s then
            QCheck.Test.fail_reportf "flow finish before start for %s/%s"
              e.Obs.ev_name e.Obs.ev_id;
          Hashtbl.replace tbl k (s, f + 1)
      | _ -> ())
    events;
  if Hashtbl.length tbl = 0 then QCheck.Test.fail_report "no flow events at all"

let prop_committed_spans_complete =
  QCheck.Test.make ~name:"committed batches trace full phase spans" ~count:4
    QCheck.(int_bound 500)
    (fun seed ->
      let obs, ok = instrumented_run ~seed ~tracing:true ~view_change:true () in
      if not ok then QCheck.Test.fail_report "workload did not complete";
      let events = Obs.events obs in
      check_span_parity events;
      check_committed_batches events;
      check_request_spans events 10;
      check_flow_prefix events;
      (* The forced view change must be visible in the trace. *)
      List.exists
        (fun e -> e.Obs.ev_ph = Obs.Instant && e.Obs.ev_cat = "view")
        events)

(* --------------------------------------------------------------- *)
(* Reservoir sampling above the cap                                 *)

let test_reservoir_exact_below_cap () =
  let h = Obs.Histogram.create ~cap:100 () in
  List.iter (Obs.Histogram.observe h) (List.init 100 (fun i -> float_of_int (i + 1)));
  check Alcotest.int "count" 100 (Obs.Histogram.count h);
  check Alcotest.int "everything retained" 100 (Obs.Histogram.retained h);
  check (Alcotest.float 0.0) "p50 exact at the cap" 50.0
    (Obs.Histogram.percentile h 0.50)

let test_reservoir_percentile_error () =
  let cap = 1024 and n = 50_000 in
  let buckets = [| 250.0; 500.0; 750.0 |] in
  let h = Obs.Histogram.create ~buckets ~cap () in
  (* Fixed-seed stream: the sampled reservoir is deterministic, so the
     asserted error bound is a property of this test, not a lottery. *)
  let st = Random.State.make [| 2026 |] in
  let samples = List.init n (fun _ -> Random.State.float st 1000.0) in
  List.iter (Obs.Histogram.observe h) samples;
  check Alcotest.int "count includes unretained samples" n (Obs.Histogram.count h);
  check Alcotest.int "retained clamps at the cap" cap (Obs.Histogram.retained h);
  (* Everything except the percentiles stays exact above the cap. *)
  check (Alcotest.float 1e-3) "sum exact" (List.fold_left ( +. ) 0.0 samples)
    (Obs.Histogram.sum h);
  check (Alcotest.float 0.0) "min exact"
    (List.fold_left Float.min Float.infinity samples)
    (Obs.Histogram.min_value h);
  check (Alcotest.float 0.0) "max exact"
    (List.fold_left Float.max Float.neg_infinity samples)
    (Obs.Histogram.max_value h);
  Array.iter
    (fun (ub, c) ->
      let exact = List.length (List.filter (fun x -> x <= ub) samples) in
      check Alcotest.int (Printf.sprintf "bucket le %.0f exact" ub) exact c)
    (Obs.Histogram.buckets h);
  (* Percentiles come from the uniform reservoir: rank error is
     O(sqrt(p(1-p)/cap)), so 6% of the value range is > 3 sigma for every
     percentile here. *)
  List.iter
    (fun p ->
      let exact = Obs.Histogram.percentile_of_list p samples in
      let est = Obs.Histogram.percentile h p in
      if Float.abs (est -. exact) > 60.0 then
        Alcotest.failf "p%.2f: reservoir %.1f vs exact %.1f (bound 60.0)" p est
          exact)
    [ 0.50; 0.90; 0.99 ]

(* --------------------------------------------------------------- *)
(* Cross-replica flow events                                        *)

(* On a drained network with no timers, every start pairs with exactly one
   finish — including deliveries to a node that unregistered in flight,
   which finish cancelled. *)
let test_flow_pairing_drained () =
  let sched = Sched.create () in
  let obs = Obs.create ~metrics:false ~tracing:true () in
  Obs.set_clock obs (fun () -> Sched.now sched);
  let network =
    Network.create ~sched
      ~latency:(Latency.dedicated_cluster (Iaccf_util.Rng.create 3))
      ~obs ()
  in
  Network.set_flow_classifier network (fun msg -> Some ("flow.test", msg));
  Network.register network 1 (fun ~src:_ _ -> ());
  Network.register network 2 (fun ~src:_ _ -> ());
  for i = 1 to 20 do
    Network.send network ~src:0 ~dst:1 (string_of_int i)
  done;
  Network.send network ~src:0 ~dst:2 "in-flight";
  Network.unregister network 2;
  Sched.run sched;
  let events = Obs.events obs in
  let count ph =
    List.length (List.filter (fun e -> e.Obs.ev_ph = ph) events)
  in
  check Alcotest.int "21 flow starts" 21 (count Obs.Flow_start);
  check Alcotest.int "every start finishes" 21 (count Obs.Flow_finish);
  check Alcotest.int "the unregistered delivery finished cancelled" 1
    (List.length
       (List.filter
          (fun e -> e.Obs.ev_ph = Obs.Flow_finish && cancelled e)
          events))

(* --------------------------------------------------------------- *)
(* Rejection causes                                                 *)

(* An equivocating primary hands odd-numbered backups a validly signed
   twin pre-prepare committing to another ledger root. Those backups
   execute the batch, find the m_root check failing, and say so in the
   trace: a replica.reject instant whose cause is the execution check,
   with only m_ok false. The even backup, given the honest pre-prepare,
   never rejects on execution. *)
let test_reject_cause () =
  let obs = Obs.create ~metrics:true ~tracing:true () in
  let cluster = Cluster.make ~seed:3 ~n:4 ~obs () in
  Network.set_intercept (Cluster.network cluster) 0
    (Iaccf_chaos.Byz.intercept ~sk:(Cluster.replica_sk cluster 0)
       ~client_base:Cluster.client_base Iaccf_chaos.Byz.Equivocate_pre_prepares);
  let client = Cluster.add_client cluster () in
  let completed = ref 0 in
  for i = 1 to 4 do
    Client.submit client ~proc:"counter/add" ~args:(string_of_int i)
      ~on_complete:(fun _ -> incr completed)
      ()
  done;
  ignore (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () -> !completed >= 4));
  let exec_rejects =
    List.filter
      (fun e ->
        e.Obs.ev_ph = Obs.Instant
        && e.Obs.ev_name = "replica.reject"
        && List.assoc_opt "cause" e.Obs.ev_args = Some "exec")
      (Obs.events obs)
  in
  check Alcotest.bool "an execution-check rejection is traced" true
    (exec_rejects <> []);
  List.iter
    (fun e ->
      check Alcotest.bool "only odd backups reject on execution" true
        (e.Obs.ev_node = 1 || e.Obs.ev_node = 3);
      check
        Alcotest.(list (option string))
        "min_ok, g_ok, m_ok"
        [ Some "true"; Some "true"; Some "false" ]
        (List.map
           (fun k -> List.assoc_opt k e.Obs.ev_args)
           [ "min_ok"; "g_ok"; "m_ok" ]))
    exec_rejects

(* A client cut off from every replica retries on its timer; each retry
   is a [client.retry] instant on the client's track that says how many
   retries so far and that no replyx has arrived. After the heal the
   request commits and the retries stop. *)
let test_client_retry_traced () =
  let obs = Obs.create ~metrics:true ~tracing:true () in
  let cluster = Cluster.make ~seed:3 ~n:4 ~obs () in
  let client = Cluster.add_client cluster () in
  let net = Cluster.network cluster in
  Network.partition net [ Client.address client ] [ 0; 1; 2; 3 ];
  let completed = ref false in
  Client.submit client ~proc:"counter/add" ~args:"1"
    ~on_complete:(fun _ -> completed := true)
    ();
  ignore (Cluster.run_until cluster ~timeout_ms:1_000.0 (fun () -> false));
  Network.heal net;
  check Alcotest.bool "commits after the heal" true
    (Cluster.run_until cluster ~timeout_ms:60_000.0 (fun () -> !completed));
  let retries =
    List.filter
      (fun e -> e.Obs.ev_ph = Obs.Instant && e.Obs.ev_name = "client.retry")
      (Obs.events obs)
  in
  check Alcotest.bool "retries are traced" true (List.length retries >= 3);
  List.iteri
    (fun i e ->
      check Alcotest.int "on the client's track" (Client.address client) e.Obs.ev_node;
      check
        Alcotest.(list (option string))
        "retry count, replyx, replies"
        [ Some (string_of_int (i + 1)); Some "false"; Some "" ]
        (List.map
           (fun k -> List.assoc_opt k e.Obs.ev_args)
           [ "retry"; "replyx"; "replies" ]))
    (List.filteri (fun i _ -> i < 3) retries)

(* --------------------------------------------------------------- *)
(* Trace IDs                                                        *)

let prop_trace_id_no_collision =
  QCheck.Test.make ~name:"request trace ids do not collide" ~count:10
    QCheck.small_nat (fun salt ->
      let sk, pk = Schnorr.keypair_of_seed (Printf.sprintf "tid-%d" salt) in
      let service = D.of_string (Printf.sprintf "svc-%d" salt) in
      let ids =
        List.init 200 (fun i ->
            Request.trace_id
              (Request.make ~sk ~client_pk:pk ~service ~client_seqno:i
                 ~proc:"p" ~args:(string_of_int i) ()))
      in
      List.for_all (fun id -> String.length id = 12) ids
      && List.length (List.sort_uniq compare ids) = 200)

(* --------------------------------------------------------------- *)
(* Chrome trace export schema                                       *)

let test_chrome_trace_schema () =
  let obs, ok = instrumented_run ~seed:5 ~tracing:true () in
  check Alcotest.bool "workload completed" true ok;
  let file = Filename.temp_file "iaccf-trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  Obs.write_trace_file obs file;
  match Json.parse_file file with
  | Error e -> Alcotest.failf "trace is not valid JSON: %s" e
  | Ok j ->
      let events =
        match Json.member "traceEvents" j with
        | Some (Json.Arr xs) -> xs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      check Alcotest.bool "trace is non-trivial" true (List.length events > 100);
      let str name o =
        match Json.member name o with Some (Json.Str s) -> Some s | _ -> None
      in
      let num name o =
        match Json.member name o with Some (Json.Num _) -> true | _ -> false
      in
      let seen_flow = ref false in
      List.iter
        (fun e ->
          match str "ph" e with
          | None -> Alcotest.fail "event without ph"
          | Some "M" -> () (* metadata: process names *)
          | Some ph ->
              if not (num "ts" e && num "pid" e) then
                Alcotest.failf "%s event missing ts/pid" ph;
              (match ph with
              | "b" | "e" | "n" | "s" | "f" ->
                  if str "id" e = None then
                    Alcotest.failf "%s event without id" ph
              | _ -> ());
              if ph = "f" then begin
                seen_flow := true;
                (* Perfetto only binds a flow arrow to the enclosing slice
                   with the "bp":"e" binding point. *)
                if str "bp" e <> Some "e" then
                  Alcotest.fail "flow finish without bp:e"
              end)
        events;
      check Alcotest.bool "export contains flow events" true !seen_flow

(* --------------------------------------------------------------- *)
(* Critical-path reconstruction                                     *)

let test_critical_path_sanity () =
  let obs, ok = instrumented_run ~seed:17 ~tracing:true () in
  check Alcotest.bool "workload completed" true ok;
  let segs = Critical_path.of_events (Obs.events obs) in
  check Alcotest.int "one breakdown per completed request" 10
    (List.length segs);
  List.iter
    (fun (s : Critical_path.segments) ->
      if s.Critical_path.cp_seqno < 0 then
        Alcotest.failf "request %s lost its batch anchor" s.Critical_path.cp_id;
      let segsum =
        s.Critical_path.cp_queue_ms +. s.Critical_path.cp_prepare_ms
        +. s.Critical_path.cp_commit_ms +. s.Critical_path.cp_reply_ms
      in
      List.iter
        (fun v -> if v < 0.0 then Alcotest.fail "negative segment")
        [ s.Critical_path.cp_queue_ms; s.Critical_path.cp_prepare_ms;
          s.Critical_path.cp_commit_ms; s.Critical_path.cp_reply_ms ];
      if Float.abs (segsum -. s.Critical_path.cp_total_ms) > 1e-6 then
        Alcotest.failf "segments sum %.6f but e2e total is %.6f" segsum
          s.Critical_path.cp_total_ms)
    segs;
  (* The summary exposes exactly the four segments plus the total. *)
  check
    Alcotest.(list string)
    "summary rows" [ "queue"; "prepare"; "commit"; "reply"; "total" ]
    (List.map (fun (n, _, _, _) -> n) (Critical_path.summarize segs))

let () =
  Alcotest.run "iaccf_obs"
    [
      ( "percentiles",
        [
          Alcotest.test_case "empty" `Quick test_percentile_empty;
          Alcotest.test_case "single sample" `Quick test_percentile_single;
          Alcotest.test_case "nearest rank" `Quick test_percentile_nearest_rank;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "golden rendering" `Quick test_snapshot_golden;
          Alcotest.test_case "parse round-trip" `Quick test_snapshot_roundtrip;
          Alcotest.test_case "deterministic under fixed seed" `Quick
            test_snapshot_deterministic;
          Alcotest.test_case "counter invariants" `Quick test_counter_invariants;
        ] );
      ( "reservoir",
        [
          Alcotest.test_case "exact below cap" `Quick
            test_reservoir_exact_below_cap;
          Alcotest.test_case "bounded percentile error above cap" `Quick
            test_reservoir_percentile_error;
        ] );
      ( "tracing",
        [
          qtest prop_committed_spans_complete;
          qtest prop_trace_id_no_collision;
          Alcotest.test_case "flow events pair on a drained network" `Quick
            test_flow_pairing_drained;
          Alcotest.test_case "chrome export schema" `Quick
            test_chrome_trace_schema;
          Alcotest.test_case "critical-path reconstruction" `Quick
            test_critical_path_sanity;
          Alcotest.test_case "rejection cause of an equivocated batch" `Quick
            test_reject_cause;
          Alcotest.test_case "client retries traced" `Quick test_client_retry_traced;
        ] );
    ]
