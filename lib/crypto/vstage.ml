(* The batched, pool-backed signature-verification stage (ROADMAP: the
   domain-based parallel crypto pipeline).

   Callers on the replica hot path no longer call Schnorr.verify inline;
   they [submit] a job with a completion callback, and the replica calls
   [flush] once per delivered message. Three accelerations stack:

   - a bounded LRU result cache keyed (pk, digest, signature): client
     retries always retransmit the signed request (PR 3), and statesync /
     observer paths re-validate suffixes that were already checked, so
     identical verifications recur;
   - per-key fixed-base precomputation: keys seen repeatedly (replica
     keys, chatty clients) are interned and get a Group.make_table, after
     which each verification runs on a 32-step squaring chain instead of
     a 252-step one;
   - the Parverify domain pool: with [domains > 1], a flush dispatches the
     batch's cache misses across worker domains.

   Determinism contract: with [domains <= 1] (the default everywhere),
   [submit] verifies inline and runs the callback before returning — the
   control flow is byte-identical to the pre-stage code, so committed
   bench baselines and obs goldens are unaffected. With the pool enabled,
   callbacks are deferred to [flush] but always run in submission order,
   and cache state evolves identically run-to-run, so a fixed seed still
   yields byte-identical simulation output (asserted by the chaos
   determinism check at --verify-domains 4). Only wall-clock metrics
   (Profile rows, queue-wait histograms) vary across runs. *)

module Obs = Iaccf_obs.Obs
module Lru = Iaccf_util.Lru

type pending = {
  p_job : Parverify.job;
  p_key : string;
  p_cls : string;
  p_principal : Profile.principal;
  p_cached : bool option; (* Some r: cache hit at submit time *)
  p_submitted_s : float; (* wall clock, for queue-wait accounting *)
  p_cont : bool -> unit;
}

type t = {
  domains : int;
  profile : Profile.t;
  wall : unit -> float;
  cache : (string, bool) Lru.t;
  (* pk interning: pk_bytes -> (canonical key, use count). Message decoding
     allocates a fresh public_key per message, so per-key tables would be
     useless without a canonical copy to hang them on. Bounded: past
     [max_interned] distinct keys (a Byzantine peer minting keys), new ones
     pass through uninterned and unaccelerated. *)
  interned : (string, Schnorr.public_key * int ref) Hashtbl.t;
  mutable pending : pending list; (* newest first *)
  mutable pending_n : int;
  mutable flushing : bool;
  c_hit : Obs.counter;
  c_miss : Obs.counter;
  c_jobs : Obs.counter;
  c_batches : Obs.counter;
  c_precomputed : Obs.counter;
  h_batch : Obs.Histogram.h;
  h_wait : Obs.Histogram.h;
}

let max_interned = 4096

(* Build the fixed-base table once a key has verified twice: the build
   costs about one and a half untabled verifications (23 against 15 us in
   BENCH_crypto.json) and each later verification saves about 8.5 us (6.5
   against 15), so the third to fifth uses pay for it. *)
let precompute_after = 2

let batch_buckets = [| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]

let create ?(domains = 0) ?(cache_capacity = 4096) ?obs ?(profile = Profile.disabled)
    ?(wall = Sys.time) () =
  let obs = match obs with Some o -> o | None -> Obs.passive () in
  {
    domains;
    profile;
    wall;
    cache = Lru.create ~capacity:cache_capacity;
    interned = Hashtbl.create 64;
    pending = [];
    pending_n = 0;
    flushing = false;
    c_hit = Obs.counter obs "crypto.cache.hit";
    c_miss = Obs.counter obs "crypto.cache.miss";
    c_jobs = Obs.counter obs "crypto.pool.jobs";
    c_batches = Obs.counter obs "crypto.pool.batches";
    c_precomputed = Obs.counter obs "crypto.keys.precomputed";
    h_batch = Obs.histogram obs ~buckets:batch_buckets "crypto.pool.batch_size";
    (* Queue waits are wall-clock and so nondeterministic; a detached
       histogram keeps them out of the registry's snapshot (which must stay
       byte-identical for a fixed seed even with the pool on). Read it via
       [queue_wait]. *)
    h_wait = Obs.Histogram.create ~active:true ();
  }

let queue_wait t = t.h_wait

let pooled t = t.domains > 1
let domains t = t.domains
let cache_hits t = Lru.hits t.cache
let cache_misses t = Lru.misses t.cache

(* Canonicalize a key and count its uses; past the threshold, build its
   fixed-base table on the canonical copy (workers only ever read it). *)
let canonical t pk =
  let kb = Schnorr.public_key_to_bytes pk in
  match Hashtbl.find_opt t.interned kb with
  | Some (cpk, uses) ->
      incr uses;
      if !uses > precompute_after && not (Schnorr.has_table cpk) then begin
        Schnorr.precompute cpk;
        Obs.incr t.c_precomputed
      end;
      cpk
  | None ->
      if Hashtbl.length t.interned < max_interned then
        Hashtbl.add t.interned kb (pk, ref 1);
      pk

(* Force a key hot from the start — replica keys are known at startup and
   verify constantly. *)
let register t pk =
  let cpk = canonical t pk in
  if not (Schnorr.has_table cpk) then begin
    Schnorr.precompute cpk;
    Obs.incr t.c_precomputed
  end;
  cpk

let job_key j =
  (* Fixed widths (32 + 32 + 64) make plain concatenation injective. *)
  Schnorr.public_key_to_bytes j.Parverify.j_pk ^ j.Parverify.j_digest
  ^ j.Parverify.j_signature

let run_inline t job ~cls principal =
  Profile.time t.profile Profile.Verify ~cls principal (fun () ->
      try Parverify.run_job job with _ -> false)

(* Synchronous, cache-checked verification — the inline-mode workhorse and
   the read side for bulk paths that [prefetch]ed. *)
let verify_now t ~cls ~principal pk digest ~signature =
  let pk = canonical t pk in
  let job = { Parverify.j_pk = pk; j_digest = digest; j_signature = signature } in
  let key = job_key job in
  match Lru.find t.cache key with
  | Some r ->
      Obs.incr t.c_hit;
      r
  | None ->
      Obs.incr t.c_miss;
      let r = run_inline t job ~cls principal in
      Lru.put t.cache key r;
      r

let submit t ~cls ~principal pk digest ~signature cont =
  if not (pooled t) then cont (verify_now t ~cls ~principal pk digest ~signature)
  else begin
    let pk = canonical t pk in
    let job = { Parverify.j_pk = pk; j_digest = digest; j_signature = signature } in
    let key = job_key job in
    let cached =
      match Lru.find t.cache key with
      | Some r ->
          Obs.incr t.c_hit;
          Some r
      | None ->
          Obs.incr t.c_miss;
          None
    in
    t.pending <-
      {
        p_job = job;
        p_key = key;
        p_cls = cls;
        p_principal = principal;
        p_cached = cached;
        p_submitted_s = t.wall ();
        p_cont = cont;
      }
      :: t.pending;
    t.pending_n <- t.pending_n + 1
  end

(* Run one batch of cache misses through the domain pool, fill the cache,
   and charge the measured wall interval across the jobs' profile cells
   (the jobs ran concurrently, so per-job timing would double-count). *)
let run_batch t misses =
  let jobs = List.map (fun p -> p.p_job) misses in
  let w0 = Profile.wall_now t.profile and v0 = Profile.virt_now t.profile in
  let results = Parverify.verify_batch_results ~domains:t.domains jobs in
  let dw = Profile.wall_now t.profile -. w0
  and dv = Profile.virt_now t.profile -. v0 in
  let n = List.length misses in
  let share = if n = 0 then 0.0 else 1.0 /. float_of_int n in
  List.iter2
    (fun p r ->
      Lru.put t.cache p.p_key r;
      Profile.record t.profile Profile.Verify ~cls:p.p_cls p.p_principal
        ~wall_s:(dw *. share) ~virt_ms:(dv *. share) ~count:1)
    misses results;
  results

let flush t =
  if (not t.flushing) && t.pending <> [] then begin
    t.flushing <- true;
    (* Callbacks may submit follow-up jobs; keep draining until quiet. *)
    while t.pending <> [] do
      let batch = List.rev t.pending in
      t.pending <- [];
      t.pending_n <- 0;
      Obs.incr t.c_batches;
      Obs.add t.c_jobs (List.length batch);
      let misses = List.filter (fun p -> p.p_cached = None) batch in
      Obs.Histogram.observe t.h_batch (float_of_int (List.length misses));
      let results = run_batch t misses in
      let rq = Queue.create () in
      List.iter (fun r -> Queue.push r rq) results;
      let now_s = t.wall () in
      List.iter
        (fun p ->
          Obs.Histogram.observe t.h_wait ((now_s -. p.p_submitted_s) *. 1000.0);
          let r = match p.p_cached with Some r -> r | None -> Queue.pop rq in
          p.p_cont r)
        batch
    done;
    t.flushing <- false
  end

(* Warm the cache for a bulk synchronous path (statesync suffix checks,
   audit sweeps, snapshot restore): pool-verify the cache misses now so
   the following inline [verify_now] loop hits. No-op when not pooled —
   the inline loop would just do the same work in the same order. *)
let prefetch t ~cls ~principal items =
  if pooled t && items <> [] then begin
    let pendings =
      List.filter_map
        (fun (pk, digest, signature) ->
          let pk = canonical t pk in
          let job =
            { Parverify.j_pk = pk; j_digest = digest; j_signature = signature }
          in
          let key = job_key job in
          match Lru.find t.cache key with
          | Some _ ->
              Obs.incr t.c_hit;
              None
          | None ->
              Obs.incr t.c_miss;
              Some
                {
                  p_job = job;
                  p_key = key;
                  p_cls = cls;
                  p_principal = principal;
                  p_cached = None;
                  p_submitted_s = t.wall ();
                  p_cont = ignore;
                })
        items
    in
    if pendings <> [] then begin
      Obs.incr t.c_batches;
      Obs.add t.c_jobs (List.length pendings);
      Obs.Histogram.observe t.h_batch (float_of_int (List.length pendings));
      ignore (run_batch t pendings)
    end
  end
