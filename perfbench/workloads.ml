(* The workloads: how each one builds its deployment and inputs (set-up,
   untimed) and what its timed window runs. *)

module Cluster = Iaccf_core.Cluster
module Replica = Iaccf_core.Replica
module App = Iaccf_core.App
module Request = Iaccf_types.Request
module Latency = Iaccf_sim.Latency
module Session = Iaccf_load.Session
module Arrival = Iaccf_load.Arrival
module Mix = Iaccf_load.Mix
module Smallbank = Iaccf_app.Smallbank
module Store = Iaccf_storage.Store
module Rng = Iaccf_util.Rng
module Receipt = Iaccf_core.Receipt
module Audit = Iaccf_core.Audit
module Enforcer = Iaccf_core.Enforcer
module Forge = Iaccf_core.Forge
module Package = Iaccf_storage.Package
module Ledger = Iaccf_ledger.Ledger
module Entry = Iaccf_ledger.Entry
module Genesis = Iaccf_types.Genesis
module Batch = Iaccf_types.Batch

type sim = {
  name : string;
  latency : Rng.t -> Latency.t;
  rate : float;  (* Poisson arrivals per virtual second *)
  window : int;  (* requests per window: ~2.5-5 s at nominal machine speed *)
  limit_ms : float;  (* a commit later than this misses the latency limit *)
  drain_ms : float;  (* virtual time after the last arrival before giving up *)
  persist : bool;
  procs : (string * App.procedure) list;  (* the service's application *)
  setup_ops : Rng.t -> (string * string) list;
      (* committed through the ledger before the window (an auditor
         replays from genesis, so state is never preloaded) *)
  setup_rate : float option;  (* set-up requests per virtual second; None: at once *)
  ops : Rng.t -> unit -> string * string;
  check_output : Request.t -> string -> bool;
}

let retry_ms = 300.0
let sessions = 1024

(* --- SmallBank --------------------------------------------------- *)

let sb_accounts = 1000

let sb_ops ~accounts rng =
  let mix = Mix.smallbank ~rng ~accounts ~theta:0.99 () in
  fun () -> Mix.next mix

(* Overdrafts are legitimate rejections; any other error means the
   accounts the workload relies on were not set up. *)
let sb_check _req output =
  match App.decode_output output with
  | Ok _ -> true
  | Error e -> e = "insufficient funds"

let smallbank_wan =
  {
    name = "smallbank-wan";
    latency = Latency.wan;
    rate = 1000.0;
    window = 500;
    limit_ms = 1000.0;
    drain_ms = 60_000.0;
    persist = false;
    procs = Smallbank.procedures;
    setup_ops =
      (fun _ ->
        List.map
          (fun op -> (op.Smallbank.op_proc, op.Smallbank.op_args))
          (Smallbank.setup_ops ~accounts:sb_accounts ~initial_balance:10_000));
    (* a burst of creations outruns the WAN view-change timeout *)
    setup_rate = Some 500.0;
    ops = sb_ops ~accounts:sb_accounts;
    check_output = sb_check;
  }

let smallbank_lan =
  {
    smallbank_wan with
    name = "smallbank-lan";
    latency = Latency.lan;
    window = 350;
    limit_ms = 100.0;
    setup_rate = None;
  }

(* --- 4 KiB blobs ------------------------------------------------- *)

let blob_keys = 2048
let blob_bytes = 4096

(* [blob/put key:payload] stores the payload under the key and answers
   with the payload's length. *)
let blob_put (ctx : App.context) args =
  match String.index_opt args ':' with
  | None -> Error "usage: key:payload"
  | Some i ->
      let payload = String.sub args (i + 1) (String.length args - i - 1) in
      let tx = ctx.App.tx in
      Iaccf_kv.Store.put tx ("blob/" ^ String.sub args 0 i) payload;
      Ok (string_of_int (String.length payload))

(* [blob/fill lo:hi] writes a 4 KiB value under every key in [lo, hi):
   set-up fills the whole key space with a few small requests. *)
let blob_fill (ctx : App.context) args =
  match List.map int_of_string_opt (String.split_on_char ':' args) with
  | [ Some lo; Some hi ] ->
      for k = lo to hi - 1 do
        Iaccf_kv.Store.put ctx.App.tx
          (Printf.sprintf "blob/%d" k)
          (String.make blob_bytes (Char.chr (k land 0xff)))
      done;
      Ok (string_of_int (hi - lo))
  | _ -> Error "usage: lo:hi"

let blob_procs = [ ("blob/put", blob_put); ("blob/fill", blob_fill) ]

let blob_ops rng () =
  let key = Rng.int rng blob_keys in
  ("blob/put", Printf.sprintf "%d:%s" key (Rng.bytes rng blob_bytes))

let blob_check (req : Request.t) output =
  App.decode_output output
  = Ok (string_of_int (String.length req.Request.args - String.index req.Request.args ':' - 1))

let blob_lan =
  {
    name = "blob-lan";
    latency = Latency.lan;
    rate = 500.0;
    (* ~125 batches after the set-up's one, so every window holds the
       same two checkpoints *)
    window = 170;
    limit_ms = 100.0;
    drain_ms = 60_000.0;
    persist = true;
    procs = blob_procs;
    (* every key written once, so the window runs on a full ~8 MiB store *)
    setup_ops =
      (fun _ ->
        List.init (blob_keys / 64) (fun i ->
            ("blob/fill", Printf.sprintf "%d:%d" (i * 64) ((i + 1) * 64))));
    setup_rate = None;
    ops = blob_ops;
    check_output = blob_check;
  }

(* --- Deployment -------------------------------------------------- *)

type deployment = {
  cluster : Cluster.t;
  addr : int;  (* the injector's reserved address *)
  plan : Inject.plan;  (* the timed window's requests *)
  dir : string option;  (* where replicas persist, removed afterwards *)
}

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir =
  let k = ref 0 in
  fun tag ->
    incr k;
    let d =
      Filename.concat Out.dir (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !k)
    in
    rm_rf d;
    d

(* Build the cluster, commit the set-up requests through the ledger, and
   sign the window's [count] requests. *)
let deploy ?profile (w : sim) ~seed ~count =
  let dir = if w.persist then Some (fresh_dir "store") else None in
  let persist =
    Option.map
      (fun dir -> { (Store.default_config ~dir) with Store.fsync = Store.No_fsync })
      dir
  in
  let cluster =
    Cluster.make ~seed ~n:4 ~params:Replica.default_params ~latency:w.latency
      ~app:(App.create w.procs) ?persist ?profile ()
  in
  let addr = Cluster.reserve_address cluster in
  let rng = Rng.create seed in
  let table =
    Session.create ~seed:(Printf.sprintf "perfbench-%d" seed)
      ~genesis:(Cluster.genesis cluster) ~n:sessions ()
  in
  let ops = Array.of_list (w.setup_ops (Rng.split rng)) in
  if ops <> [||] then begin
    let j = ref (-1) and k = ref (-1) in
    let setup =
      Inject.plan ~cluster ~addr ~sessions:table
        ~pick:(fun () ->
          incr j;
          !j mod sessions)
        ~next_op:(fun () ->
          incr k;
          ops.(!k))
        ?arrival:
          (Option.map
             (fun r -> Arrival.create ~rng (Arrival.Constant r))
             w.setup_rate)
        ~count:(Array.length ops) ()
    in
    let o =
      Inject.run ~cluster ~addr ~plan:setup ~retry_ms ~drain_ms:w.drain_ms
        ~sample_every:max_int
        ~check_output:(fun _ o -> Result.is_ok (App.decode_output o))
        ()
    in
    if o.Inject.committed <> o.Inject.offered || o.Inject.bad_outputs > 0 then
      failwith
        (Printf.sprintf "%s: set-up committed %d of %d (%d bad)" w.name
           o.Inject.committed o.Inject.offered o.Inject.bad_outputs)
  end;
  let arrival = Arrival.create ~rng:(Rng.split rng) (Arrival.Poisson w.rate) in
  let pick_rng = Rng.split rng in
  let plan =
    Inject.plan ~cluster ~addr ~sessions:table
      ~pick:(fun () -> Rng.int pick_rng sessions)
      ~next_op:(w.ops (Rng.split rng))
      ~arrival ~count ()
  in
  { cluster; addr; plan; dir }

(* The replica with the longest ledger. A lagging replica (on the WAN
   model, often replica 0) may not yet hold the batches of the latest
   receipts, and its ledger would not cover them. *)
let ahead cluster =
  let len r = Ledger.length (Replica.ledger r) in
  List.fold_left
    (fun best r -> if len r > len best then r else best)
    (Cluster.replica cluster 0) (Cluster.replicas cluster)

let teardown d =
  Cluster.close_storage d.cluster;
  Option.iter rm_rf d.dir


(* --- Offline audit ----------------------------------------------- *)

(* The fault-free LAN SmallBank service whose ledger the auditor checks.
   Its requests arrive faster than the LAN one, so batches fill and the
   set-up stays short; every commit yields a receipt. *)
let audit_source = { smallbank_lan with name = "audit-replay"; rate = 20_000.0 }

let audit_receipts_per_s = 100

type package = {
  path : string;
  source : deployment;  (* the service the package was taken from *)
  window : Inject.outcome;  (* its run, receipts included *)
}

let audit_deploy ?hooks ?profile ?(around = fun _ f -> f ()) ~seed ~count () =
  let d = deploy ?profile audit_source ~seed ~count in
  let o =
    around d (fun () ->
        Inject.run ?hooks ~cluster:d.cluster ~addr:d.addr ~plan:d.plan ~retry_ms
          ~drain_ms:audit_source.drain_ms ~sample_every:1
          ~check_output:audit_source.check_output ())
  in
  if o.Inject.committed <> o.Inject.offered then
    failwith
      (Printf.sprintf "audit-replay: the source service committed %d of %d"
         o.Inject.committed o.Inject.offered);
  let ledger = Replica.ledger (Cluster.replica d.cluster 0) in
  let path = fresh_dir "package" ^ ".iapkg" in
  Package.write_file path
    (Package.of_ledger ~receipts:(List.map Receipt.serialize o.Inject.receipts) ledger);
  { path; source = d; window = o }

let audit_app () = Smallbank.app ()

let auditor ~app genesis =
  let p = Replica.default_params in
  Audit.create ~genesis ~app ~pipeline:p.Replica.pipeline
    ~checkpoint_interval:p.Replica.checkpoint_interval

(* One pass of the auditor's path over a package file. Stage times are
   as read and scaled to nominal machine speed (see Calib). *)
type audit_round = {
  load_s : float * float;  (* Package.read_file + to_ledger + receipt decoding *)
  verify_ms : float list;  (* per Receipt.verify, as read *)
  verify_scaled_ms : float list;  (* the same at nominal machine speed *)
  rejected : int;
  audit_s : float * float;
  verdict : (unit, Audit.verdict) result;
  ledger_txs : int;
}

(* Runs one stage of the round: its result and timing. The untraced run
   measures with [Calib.measure]; the traced run records a span instead. *)
type stager = { stage : 'a. string -> (unit -> 'a) -> 'a * Calib.scale }

let calibrated = { stage = (fun _ f -> Calib.measure f) }

let audit_round ?(stager = calibrated) ?(tamper_receipt = false) ~app path =
  let (pkg, ledger, receipts), load =
    stager.stage "package.load" (fun () ->
        let pkg = Package.read_file path in
        (pkg, Package.to_ledger pkg, List.map Receipt.deserialize pkg.Package.pkg_receipts))
  in
  let receipts =
    match receipts with
    | r :: rest when tamper_receipt -> Forge.tamper_tx_output r ~output:"forged" :: rest
    | rs -> rs
  in
  let genesis = Package.genesis pkg in
  let config = genesis.Genesis.initial_config and service = Genesis.hash genesis in
  let rejected = ref 0 in
  let timings, verify =
    stager.stage "receipt.verify" (fun () ->
        List.map
          (fun r ->
            let ok, t0, dt = Calib.timed (fun () -> Receipt.verify ~config ~service r) in
            if Result.is_error ok then incr rejected;
            (t0, dt))
          receipts)
  in
  (* seconds -> ms per verify, chunks of the reference excluded *)
  let timings = List.map (fun (t0, dt) -> (t0, (dt -. verify.Calib.busy t0 (t0 +. dt)) *. 1e3)) timings in
  let a = auditor ~app genesis in
  let verdict, audit =
    stager.stage "audit" (fun () -> Audit.audit a ~receipts ~ledger ~responder:0 ())
  in
  {
    load_s = (load.Calib.raw, load.Calib.scaled);
    verify_ms = List.map snd timings;
    verify_scaled_ms = List.map (fun (t0, ms) -> ms /. verify.Calib.slowdown_at t0) timings;
    rejected = !rejected;
    audit_s = (audit.Calib.raw, audit.Calib.scaled);
    verdict;
    ledger_txs = List.length (Replays.requests ledger);
  }

(* The tampered copy: the first [batches] request batches of the honest
   ledger of a service running [procs] re-signed with every replica's
   key, one transaction's recorded result altered. The audit must name at
   least f+1 replicas, and the enforcer must accept the uPoM. Returns the
   number blamed. *)
let tamper_check ?(tamper = true) ~procs ~batches (d : deployment) =
  let cluster = d.cluster in
  let genesis = Cluster.genesis cluster in
  let p = Replica.default_params in
  let forge =
    Forge.create ~genesis
      ~sks:(List.map (fun r -> (Replica.id r, Cluster.replica_sk cluster (Replica.id r))) (Cluster.replicas cluster))
      ~app:(App.create procs) ~pipeline:p.Replica.pipeline
      ~checkpoint_interval:p.Replica.checkpoint_interval
  in
  (* group the honest ledger's transactions by pre-prepare *)
  let groups =
    List.fold_left
      (fun acc (_, e) ->
        match (e, acc) with
        | Entry.Pre_prepare _, _ -> [] :: acc
        | Entry.Tx tx, g :: rest -> (tx.Batch.request :: g) :: rest
        | _ -> acc)
      []
      (Ledger.entries (Replica.ledger (ahead cluster)) ())
    |> List.rev_map List.rev
    |> List.filter (fun g -> g <> [])
  in
  let groups = List.filteri (fun i _ -> i < batches) groups in
  let last = List.length groups - 1 in
  List.iteri
    (fun i reqs ->
      let execute_override =
        if tamper && i = last then
          let victim = List.hd reqs in
          Some
            (fun req _ ->
              if req == victim then
                Some (App.output_ok "tampered", Iaccf_crypto.Digest32.of_string "tampered")
              else None)
        else None
      in
      ignore (Forge.add_batch forge ?execute_override reqs))
    groups;
  let forged = Forge.ledger forge in
  let quorum_f = Iaccf_types.Config.f genesis.Genesis.initial_config in
  match Audit.audit (auditor ~app:(App.create procs) genesis) ~receipts:[] ~ledger:forged ~responder:0 () with
  | Ok () -> Error "the tampered ledger audited clean"
  | Error verdict -> (
      let blamed = Iaccf_util.Bitmap.cardinal verdict.Audit.v_blamed_replicas in
      if blamed < quorum_f + 1 then Error (Printf.sprintf "uPoM blames %d < f+1" blamed)
      else
        let enforcer =
          Enforcer.create ~genesis ~app:(App.create procs) ~pipeline:p.Replica.pipeline
            ~checkpoint_interval:p.Replica.checkpoint_interval
        in
        match
          Enforcer.verify_upom enforcer ~verdict ~receipts:[] ~gov_receipts:[]
            ~response:{ Enforcer.resp_ledger = forged; resp_checkpoint = None }
            ~responder:0
        with
        | Enforcer.Members_punished _ -> Ok blamed
        | _ -> Error "the enforcer rejected the uPoM")
