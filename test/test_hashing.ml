(* Hashing budget: how many SHA-256 blocks the replicas compress per
   request and per batch, counted by Sha256.blocks_compressed.

   A replica hashes a request's bytes at most twice: once for the client
   signing payload and once for the request digest, whose midstate also
   yields the transaction's G leaf. Per transaction it adds a short tail
   (the leaf's index/output/write-set suffix, G nodes, the write-set
   hash). Everything else a batch hashes — H(pp), nonce openings, ledger
   leaves, signature challenges — is a per-batch cost that does not grow
   with the request size. Runs are deterministic (fixed seeds on the
   simulated network), so the counts are exact and the bounds tight. *)

open Iaccf_core
module Sha256 = Iaccf_crypto.Sha256
module Schnorr = Iaccf_crypto.Schnorr
module Request = Iaccf_types.Request
module Message = Iaccf_types.Message
module Batch = Iaccf_types.Batch
module Network = Iaccf_sim.Network

let check = Alcotest.check
let n = 4

(* Blocks SHA-256 compresses for an [len]-byte input, padding included. *)
let blocks_of_len len = (len + 9 + 63) / 64

(* Allowances per replica. A transaction's tail is about 8 blocks: the
   leaf suffix, its write-set hash, and its share of G built twice (for
   g_root, then for the replyx paths). A batch with one empty request
   costs 76.3 blocks with a durable store attached. The bounds sit just
   above those measurements, because every reuse point is worth more than
   the slack: a third hash of a 4 KiB request costs 67 blocks per
   transaction, recomputing the outgoing prepare's H(pp) costs 3 blocks per
   batch, rehashing nonce openings on every commit check costs 6, and
   rehashing ledger leaves in the durable store costs 12. *)
let per_tx_tail = 9
let per_batch = 78

(* A client endpoint that hashes nothing: it sends pre-signed requests
   and notes which client sequence numbers got a replyx back. *)
type endpoint = { addr : int; answered : (int, unit) Hashtbl.t }

let endpoint cluster pk =
  let addr = Cluster.reserve_address cluster in
  let answered = Hashtbl.create 16 in
  Network.register (Cluster.network cluster) addr (fun ~src:_ msg ->
      match msg with
      | Wire.Replyx_msg x ->
          Hashtbl.replace answered x.Message.x_tx.Batch.request.Request.client_seqno ()
      | _ -> ());
  Cluster.bind_client_pk cluster pk ~addr;
  { addr; answered }

let send cluster ep req =
  List.iter
    (fun r ->
      Network.send (Cluster.network cluster) ~src:ep.addr ~dst:(Replica.id r)
        (Wire.Request_msg req))
    (Cluster.replicas cluster)

let all_committed cluster k =
  List.for_all
    (fun r -> (Replica.stats r).Replica.txs_committed >= k)
    (Cluster.replicas cluster)

let signer cluster =
  let service = Iaccf_types.Genesis.hash (Cluster.genesis cluster) in
  let sk, pk = Schnorr.keypair_of_seed "hashing-budget" in
  let make i args =
    Request.make ~sk ~client_pk:pk ~service ~client_seqno:i ~proc:"noop" ~args ()
  in
  (pk, make)

let batches cluster = (Replica.stats (Cluster.replica cluster 0)).Replica.batches_committed

(* 24 requests with 4 KiB arguments, sent at once. The signing payload is
   no longer than the request's serialization (it carries a 13-byte tag
   but not the 64-byte signature), so [2 * req_blocks] covers both. *)
let test_request_bytes_hashed_twice () =
  let cluster = Cluster.make ~seed:3 ~n () in
  let pk, make = signer cluster in
  let ep = endpoint cluster pk in
  let k = 24 in
  let reqs =
    List.init k (fun i -> make i (String.make 4096 (Char.chr (65 + (i mod 26)))))
  in
  let req_blocks = blocks_of_len (String.length (Request.serialize (List.hd reqs))) in
  let before = Sha256.blocks_compressed () in
  List.iter (send cluster ep) reqs;
  let ok =
    Cluster.run_until cluster (fun () ->
        Hashtbl.length ep.answered = k && all_committed cluster k)
  in
  let blocks = Sha256.blocks_compressed () - before in
  check Alcotest.bool "all committed with receipts" true ok;
  let budget = n * ((k * ((2 * req_blocks) + per_tx_tail)) + (batches cluster * per_batch)) in
  if blocks > budget then
    Alcotest.failf "%d blocks for %d 4 KiB requests in %d batches; budget %d" blocks k
      (batches cluster) budget

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* 30 one-request batches, one after another, each carrying an empty
   request, on replicas with durable stores. *)
let test_per_batch_budget () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "iaccf-hashing-test-%d" (Unix.getpid ()))
  in
  rm_rf dir;
  let cluster =
    Cluster.make ~seed:3 ~n ~persist:(Iaccf_storage.Store.default_config ~dir) ()
  in
  let pk, make = signer cluster in
  let ep = endpoint cluster pk in
  let m = 30 in
  let before = Sha256.blocks_compressed () in
  let ok =
    List.for_all
      (fun i ->
        send cluster ep (make i "");
        Cluster.run_until cluster (fun () ->
            Hashtbl.mem ep.answered i && all_committed cluster (i + 1)))
      (List.init m Fun.id)
  in
  let blocks = Sha256.blocks_compressed () - before in
  Cluster.close_storage cluster;
  rm_rf dir;
  check Alcotest.bool "all committed with receipts" true ok;
  let b = batches cluster in
  let budget = n * b * per_batch in
  if blocks > budget then
    Alcotest.failf "%d blocks for %d one-request batches (%d per batch per replica); \
                    budget %d"
      blocks b (blocks / (n * b)) budget

(* Blocks a cluster compresses for [k] client requests, and the blocks one
   digest of each distinct committed request costs. *)
let client_run ~tracing k =
  let obs = Iaccf_obs.Obs.create ~metrics:true ~tracing () in
  let cluster = Cluster.make ~seed:5 ~n ~obs () in
  let client = Cluster.add_client cluster () in
  let before = Sha256.blocks_compressed () in
  for i = 1 to k do
    Client.submit client ~proc:"noop" ~args:(string_of_int i) ()
  done;
  let ok = Cluster.run_until cluster (fun () -> Client.completed client >= k) in
  let blocks = Sha256.blocks_compressed () - before in
  let request_blocks = ref 0 in
  Iaccf_ledger.Ledger.iteri
    (fun _ e ->
      match e with
      | Iaccf_ledger.Entry.Tx tx ->
          request_blocks :=
            !request_blocks + blocks_of_len (String.length (Request.serialize tx.Batch.request))
      | _ -> ())
    (Replica.ledger (Cluster.replica cluster 0));
  check Alcotest.bool "all receipts" true ok;
  (blocks, !request_blocks)

(* Tracing names a request's flow events after its digest. The id comes
   from a digest already computed, so a traced run hashes at most one
   more digest per distinct request than an untraced one, whatever the
   number of sends, retransmissions and receipts. *)
let test_tracing_reuses_digests () =
  let k = 60 in
  let untraced, request_blocks = client_run ~tracing:false k in
  let traced, _ = client_run ~tracing:true k in
  if traced - untraced > request_blocks then
    Alcotest.failf "tracing added %d blocks over %d untraced; one digest per request is %d"
      (traced - untraced) untraced request_blocks

let () =
  Alcotest.run "iaccf_hashing"
    [
      ( "budget",
        [
          Alcotest.test_case "request bytes hashed at most twice per replica" `Quick
            test_request_bytes_hashed_twice;
          Alcotest.test_case "fixed hashing per batch" `Quick test_per_batch_budget;
          Alcotest.test_case "tracing reuses request digests" `Quick
            test_tracing_reuses_digests;
        ] );
    ]
