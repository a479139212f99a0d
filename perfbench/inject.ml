(* Open-loop request injection into a simulated cluster.

   Requests are signed before the timed window opens (a [plan]), so the
   window pays for the service, not for the generator. One reserved
   network address broadcasts each request to every replica when it falls
   due on the virtual clock, rebroadcasts whatever still waits for its
   receipt ([Replyx]) every [retry_ms], and stops at a virtual deadline:
   anything uncommitted by then has failed. Latency runs from the moment a
   request was due, so a stall also delays the requests queued behind it. *)

module Cluster = Iaccf_core.Cluster
module Replica = Iaccf_core.Replica
module Receipt = Iaccf_core.Receipt
module Wire = Iaccf_core.Wire
module Network = Iaccf_sim.Network
module Sched = Iaccf_sim.Sched
module Request = Iaccf_types.Request
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module D = Iaccf_crypto.Digest32
module Session = Iaccf_load.Session
module Arrival = Iaccf_load.Arrival

type plan = {
  due_ms : float array;  (* offset from the window start *)
  reqs : Request.t array;
  keys : string array;  (* raw request hashes, the receipt handle *)
}

(* Requests [pos, pos+len) of a plan, due times rebased to the first. *)
let sub p ~pos ~len =
  let base = if len = 0 then 0.0 else p.due_ms.(pos) in
  {
    due_ms = Array.map (fun d -> d -. base) (Array.sub p.due_ms pos len);
    reqs = Array.sub p.reqs pos len;
    keys = Array.sub p.keys pos len;
  }

(* Sign [count] requests from [sessions], session [pick ()] issuing
   [next_op ()], and route every signer's replies to [addr]. [arrival]
   spaces them on the virtual clock; [None] makes them all due at once
   (a setup burst). *)
let plan ~cluster ~addr ~sessions ~pick ~next_op ?arrival ~count () =
  let now = ref 0.0 in
  let due_ms =
    Array.init count (fun _ ->
        (match arrival with
        | Some a -> now := !now +. Arrival.next_gap_ms a ~now_ms:!now
        | None -> ());
        !now)
  in
  let reqs =
    Array.init count (fun _ ->
        let id = pick () in
        let proc, args = next_op () in
        let r = Session.make_request sessions ~id ~proc ~args () in
        if Session.nonce sessions ~id = 1 then
          Cluster.bind_client_pk cluster r.Request.client_pk ~addr;
        r)
  in
  { due_ms; reqs; keys = Array.map (fun r -> D.to_raw (Request.hash r)) reqs }

(* The traced run wraps the scheduler step and the injector's own work in
   timers; the untraced run calls straight through. *)
type hooks = { step : Sched.t -> bool; client : (unit -> unit) -> unit }

let untimed = { step = Sched.step; client = (fun f -> f ()) }

type outcome = {
  offered : int;  (* requests in the plan *)
  injected : int;  (* requests actually sent on schedule *)
  committed : int;
  outstanding : int;  (* still waiting for a receipt at the deadline *)
  retries : int;
  bad_outputs : int;  (* receipts whose result the workload rejects *)
  latencies : float array;  (* virtual ms, due -> receipt, per commit *)
  receipts : Receipt.t list;  (* for every [sample_every]-th commit *)
  wall_s : float;
  steps : int;
  virt_ms : float;
}

(* [tap] sees every [Replyx] before the injector does: [None] loses it,
   [Some x] hands on [x]. The self-test seeds faults with it. *)
let run ?(hooks = untimed) ?(tap = Option.some) ~cluster ~addr ~plan ~retry_ms ~drain_ms
    ~sample_every ~check_output () =
  let sched = Cluster.sched cluster and net = Cluster.network cluster in
  let dsts = List.map Replica.id (Cluster.replicas cluster) in
  let n = Array.length plan.reqs in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i k -> Hashtbl.replace index k i) plan.keys;
  let t0 = Sched.now sched in
  let deadline =
    t0 +. (if n = 0 then 0.0 else plan.due_ms.(n - 1)) +. drain_ms
  in
  let last = Array.make n neg_infinity in
  let completed = Array.make n false in
  let pending = Hashtbl.create 1024 in
  let injected = ref 0 and committed = ref 0 and retries = ref 0 in
  let bad = ref 0 and lats = ref [] in
  let closed = ref false in
  let send i =
    last.(i) <- Sched.now sched;
    Network.broadcast net ~src:addr ~dsts (Wire.Request_msg plan.reqs.(i))
  in
  (* Receipts are assembled the way a client does (Alg. 3): the designated
     replica's [Replyx] plus N-f-1 backups' replies for the same batch. *)
  let replies = Hashtbl.create 256 in
  let sampled = ref [] in
  let complete (x : Message.replyx) =
    let tx = x.Message.x_tx in
    match Hashtbl.find_opt index (D.to_raw (Request.hash tx.Batch.request)) with
    | Some i when not completed.(i) ->
        completed.(i) <- true;
        Hashtbl.remove pending i;
        incr committed;
        lats := (Sched.now sched -. (t0 +. plan.due_ms.(i))) :: !lats;
        if not (check_output plan.reqs.(i) tx.Batch.result.Batch.output) then
          incr bad;
        if !committed mod sample_every = 0 then sampled := x :: !sampled
    | _ -> ()  (* a duplicate receipt, or a request of another plan *)
  in
  Network.register net addr (fun ~src:_ msg ->
      match msg with
      | Wire.Replyx_msg x -> hooks.client (fun () -> Option.iter complete (tap x))
      | Wire.Reply_msg r ->
          let key = (r.Message.r_view, r.Message.r_seqno) in
          let tbl =
            match Hashtbl.find_opt replies key with
            | Some t -> t
            | None ->
                let t = Hashtbl.create 4 in
                Hashtbl.replace replies key t;
                t
          in
          Hashtbl.replace tbl r.Message.r_replica r
      | _ -> ());
  let finished () =
    (!injected = n && Hashtbl.length pending = 0) || Sched.now sched > deadline
  in
  Array.iteri
    (fun i d ->
      ignore
        (Sched.schedule sched ~delay:d (fun () ->
             hooks.client (fun () ->
                 incr injected;
                 Hashtbl.replace pending i ();
                 send i))))
    plan.due_ms;
  let rec sweep () =
    if not !closed then sweep_now ()
  and sweep_now () =
    let now = Sched.now sched in
    Hashtbl.iter
      (fun i () ->
        if now -. last.(i) >= retry_ms then begin
          incr retries;
          send i
        end)
      pending;
    if not (finished ()) then arm ()
  and arm () =
    ignore
      (Sched.schedule sched ~delay:retry_ms (fun () -> hooks.client sweep))
  in
  arm ();
  let steps = ref 0 in
  let wall0 = Unix.gettimeofday () in
  while (not (finished ())) && hooks.step sched do
    incr steps
  done;
  let wall_s = Unix.gettimeofday () -. wall0 in
  closed := true;
  Network.unregister net addr;
  let quorum =
    Iaccf_types.Config.quorum (Cluster.genesis cluster).Iaccf_types.Genesis.initial_config
  in
  let assemble (x : Message.replyx) =
    let pp = x.Message.x_pp in
    let backups =
      match Hashtbl.find_opt replies (pp.Message.view, pp.Message.seqno) with
      | None -> []
      | Some tbl ->
          Hashtbl.fold
            (fun r reply acc -> if r = pp.Message.primary then acc else (r, reply) :: acc)
            tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    if List.length backups < quorum - 1 then None
    else
      let chosen = List.filteri (fun i _ -> i < quorum - 1) backups in
      Some
        {
          Receipt.pp;
          prep_bitmap = Iaccf_util.Bitmap.of_list (List.map fst chosen);
          prepare_sigs = List.map (fun (_, r) -> r.Message.r_signature) chosen;
          nonces = List.map (fun (_, r) -> r.Message.r_nonce) chosen;
          subject =
            Receipt.Tx_subject
              {
                tx = x.Message.x_tx;
                leaf_index = x.Message.x_leaf_index;
                batch_size = x.Message.x_batch_size;
                path = x.Message.x_path;
              };
        }
  in
  {
    offered = n;
    injected = !injected;
    committed = !committed;
    outstanding = Hashtbl.length pending;
    retries = !retries;
    bad_outputs = !bad;
    latencies = Array.of_list (List.rev !lats);
    receipts = List.filter_map assemble (List.rev !sampled);
    wall_s;
    steps = !steps;
    virt_ms = Sched.now sched -. t0;
  }

(* How often the plan's requests appear as transactions in the ledger of
   the replica that holds the most of them: a count of commits made by
   the service, not by the injector. *)
let ledgered ~cluster plan =
  let keys = Hashtbl.create (Array.length plan.keys) in
  Array.iter (fun k -> Hashtbl.replace keys k ()) plan.keys;
  let count r =
    List.fold_left
      (fun n (_, e) ->
        match e with
        | Iaccf_ledger.Entry.Tx tx when Hashtbl.mem keys (D.to_raw (Request.hash tx.Batch.request)) -> n + 1
        | _ -> n)
      0
      (Iaccf_ledger.Ledger.entries (Replica.ledger r) ())
  in
  List.fold_left (fun m r -> max m (count r)) 0 (Cluster.replicas cluster)
