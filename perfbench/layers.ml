(* Per-layer accounting for the traced run, measured from outside the
   program: every replica's network handler is re-registered as a timed
   call to [Replica.dispatch], the scheduler is stepped (and timed) here,
   and the injector's own work is timed separately. Crypto inside a
   dispatch is read off the shared [Profile], so a handler's self time is
   its span minus the crypto charged while it ran.

   Spans are kept in memory on the benchmark's own tracing registry and
   written out as Chrome trace_event JSON at the end. *)

module Cluster = Iaccf_core.Cluster
module Replica = Iaccf_core.Replica
module Wire = Iaccf_core.Wire
module Network = Iaccf_sim.Network
module Sched = Iaccf_sim.Sched
module Request = Iaccf_types.Request
module Profile = Iaccf_crypto.Profile
module Obs = Iaccf_obs.Obs

(* Message classes a replica handles. [recovery] is everything a replica
   does to catch up or change view. *)
let classes = [ "request"; "pre_prepare"; "prepare"; "commit"; "recovery"; "other" ]

let class_of = function
  | Wire.Request_msg _ -> "request"
  | Wire.Pre_prepare_msg _ -> "pre_prepare"
  | Wire.Prepare_msg _ -> "prepare"
  | Wire.Commit_msg _ -> "commit"
  | Wire.Fetch_missing _ | Wire.Batch_package_msg _ | Wire.View_change_msg _
  | Wire.New_view_msg _ | Wire.Fetch_state _ | Wire.Fetch_suffix _
  | Wire.Ledger_suffix_chunk _ | Wire.Fetch_snapshot | Wire.Snapshot_offer _
  | Wire.Fetch_snapshot_chunk _ | Wire.Snapshot_chunk _ ->
      "recovery"
  | _ -> "other"

type acc = { mutable n : int; mutable wall : float; mutable crypto : float }

let apply_cell p = Profile.cell p (Profile.Apply, "batch", Profile.Replica_key)

(* Crypto charged to the profile so far: everything but batch execution. *)
let crypto_so_far p = Profile.total_wall_s p -. (apply_cell p).Profile.wall_s

type t = {
  profile : Profile.t;
  trace : Obs.t;  (* spans, on the wall clock (ms since [create]) *)
  max_spans : int;  (* spans beyond this are counted, not kept *)
  mutable spans : int;
  by_class : (string, acc) Hashtbl.t;
  fetch_missing : acc;
  client : acc;  (* the injector: arrivals, receipts, retransmit sweeps *)
  sched : acc;  (* whole scheduler steps, nested work included *)
}

let create () =
  let fresh () = { n = 0; wall = 0.0; crypto = 0.0 } in
  let by_class = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace by_class c (fresh ())) classes;
  let origin = Unix.gettimeofday () in
  {
    profile = Profile.create ~wall:Unix.gettimeofday ();
    trace =
      Obs.create ~metrics:false ~tracing:true
        ~clock:(fun () -> (Unix.gettimeofday () -. origin) *. 1000.0)
        ();
    max_spans = 200_000;
    spans = 0;
    by_class;
    fetch_missing = fresh ();
    client = fresh ();
    sched = fresh ();
  }

let acc t cls = Hashtbl.find t.by_class cls

(* The span id ties a dispatch to its request ([Request.trace_id]) or its
   batch, the way the program's own flow events do. *)
let span_id = function
  | Wire.Request_msg r -> Request.trace_id r
  | msg -> ( match Wire.flow_of msg with Some (_, id) -> id | None -> "-")

let timed t a ~node ~name ~id ~parent f =
  let keep = t.spans < t.max_spans in
  if keep then begin
    t.spans <- t.spans + 1;
    Obs.span_begin t.trace ~node ~cat:"bench" ~name ~id ~args:[ ("parent", parent) ] ()
  end;
  let c0 = crypto_so_far t.profile in
  let w0 = Unix.gettimeofday () in
  f ();
  a.wall <- a.wall +. (Unix.gettimeofday () -. w0);
  a.crypto <- a.crypto +. (crypto_so_far t.profile -. c0);
  a.n <- a.n + 1;
  if keep then Obs.span_end t.trace ~node ~cat:"bench" ~name ~id ()

(* Put every replica's handler behind a timer. *)
let wrap_replicas t cluster =
  let net = Cluster.network cluster in
  List.iter
    (fun r ->
      let node = Replica.id r in
      Network.register net node (fun ~src msg ->
          let cls = class_of msg in
          (match msg with
          | Wire.Fetch_missing _ -> t.fetch_missing.n <- t.fetch_missing.n + 1
          | _ -> ());
          timed t (acc t cls) ~node ~name:("replica." ^ cls) ~id:(span_id msg)
            ~parent:"window" (fun () -> Replica.dispatch r ~src msg)))
    (Cluster.replicas cluster)

let hooks t =
  {
    Inject.step =
      (fun sched ->
        let w0 = Unix.gettimeofday () in
        let more = Sched.step sched in
        t.sched.wall <- t.sched.wall +. (Unix.gettimeofday () -. w0);
        t.sched.n <- t.sched.n + 1;
        more);
    client =
      (fun f ->
        timed t t.client ~node:(-1) ~name:"client" ~id:"injector" ~parent:"window" f);
  }

(* The window the spans above hang off, as a span of its own. *)
let window t f =
  Obs.span_begin t.trace ~node:(-3) ~cat:"bench" ~name:"window" ~id:"window" ();
  let r = f () in
  Obs.span_end t.trace ~node:(-3) ~cat:"bench" ~name:"window" ~id:"window" ();
  r

let dispatch_wall t = Hashtbl.fold (fun _ a s -> s +. a.wall) t.by_class 0.0
let dispatch_count t = Hashtbl.fold (fun _ a s -> s + a.n) t.by_class 0

let write_trace t path =
  let oc = open_out path in
  Obs.write_trace_chrome t.trace oc;
  close_out oc
