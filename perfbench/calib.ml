(* A machine-speed reference, sampled in a separate process while the
   measured work runs.

   The processors this benchmark runs on are shared: other processes slow
   a single-threaded program down by up to 2x, in phases that last
   seconds to minutes (see NOTES.md). A child process (this executable,
   run with [--reference]) times a short fixed chunk of reference work
   every [every_s] and reports each chunk on a pipe. The chunk uses none
   of the repository's code and runs on the child's own heap, so nothing
   the program does changes its work; it only feels the machine, the way
   work of the program's kind does. The
   child shares the program's processor (perfbench/run.py pins both to
   one), so it feels what the program feels, and the program does not run
   while a chunk does: each chunk's time is taken out of the stretch of
   measured work around it. What is left is divided by how much slower
   than [nominal_ms] the chunks around it ran: that is the scaled reading.
   The benchmark prints the raw readings beside the scaled ones. *)

let nominal_ms = 1.2
let every_s = 0.1

(* The chunk is shaped like the work the replicas and the auditor do,
   written here independently of the repository's code: multi-limb
   arithmetic like a 256-bit prime field's (11 limbs of 24 bits,
   schoolbook squares into fresh arrays, the high half folded back down
   with a small multiplier), a SHA-256-shaped compression (32-bit words,
   rotations, a 64-word schedule per 64-byte block) and short-lived
   allocation. *)
let limbs = 11
let mask = 0xFFFFFF

let square_fold a =
  let out = Array.make (2 * limbs) 0 in
  for i = 0 to limbs - 1 do
    let carry = ref 0 and ai = a.(i) in
    for j = 0 to limbs - 1 do
      let v = out.(i + j) + (ai * a.(j)) + !carry in
      out.(i + j) <- v land mask;
      carry := v lsr 24
    done;
    out.(i + limbs) <- out.(i + limbs) + !carry
  done;
  let r = Array.make limbs 0 in
  let carry = ref 0 in
  for i = 0 to limbs - 1 do
    let v = out.(i) + (out.(i + limbs) * 19) + !carry in
    r.(i) <- v land mask;
    carry := v lsr 24
  done;
  r.(0) <- (r.(0) + (!carry * 19)) land mask lor 1;
  r

let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land 0xFFFFFFFF
let round_constants = Array.init 64 (fun t -> (t + 1) * 0x9E3779B9 land 0xFFFFFFFF)

let compress buf =
  let h = Array.init 8 (fun i -> (i + 1) * 0x6A09E667 land 0xFFFFFFFF) in
  for block = 0 to (Bytes.length buf / 64) - 1 do
    let w = Array.make 64 0 in
    for t = 0 to 15 do
      w.(t) <- Int32.to_int (Bytes.get_int32_be buf ((block * 64) + (t * 4))) land 0xFFFFFFFF
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land 0xFFFFFFFF
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + round_constants.(t) + w.(t)) land 0xFFFFFFFF in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land 0xFFFFFFFF in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land 0xFFFFFFFF;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land 0xFFFFFFFF
    done;
    h.(0) <- (h.(0) + !a) land 0xFFFFFFFF;
    h.(4) <- (h.(4) + !e) land 0xFFFFFFFF
  done;
  h.(0)

let block = Bytes.init 4096 (fun i -> Char.chr ((i * 7) land 0xff))

let chunk () =
  let x = ref (Array.init limbs (fun i -> ((i * 0x1234567) + 1) land mask)) in
  for _ = 1 to 600 do
    x := square_fold !x
  done;
  let h = compress block + compress block in
  let l = List.init 10_000 (fun i -> float_of_int (i + (h land 1))) in
  ignore (Sys.opaque_identity (!x, List.fold_left ( +. ) 0.0 l))

(* The child's main loop: one "start duration" line per chunk, until the
   parent closes the pipe (the write then fails and the child exits). *)
let reference_main () =
  let live = List.init 200_000 (fun i -> (string_of_int i, float_of_int i)) in
  (* settle the heap first: the first chunks after building it run slow *)
  Gc.compact ();
  for _ = 1 to 50 do
    chunk ()
  done;
  (try
     while true do
       let t0 = Unix.gettimeofday () in
       chunk ();
       let dt = Unix.gettimeofday () -. t0 in
       Printf.printf "%.6f %.6f\n%!" t0 dt;
       Unix.sleepf every_s
     done
   with Sys_error _ -> ());
  ignore (Sys.opaque_identity live);
  exit 0

(* --- The parent's side ---------------------------------------------- *)

let child : (int * Unix.file_descr) option ref = ref None

(* (start, duration) of every chunk read so far, newest first. *)
let samples : (float * float) list ref = ref []
let partial = Buffer.create 256

let stop () =
  match !child with
  | None -> ()
  | Some (pid, fd) ->
      child := None;
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close fd

(* The processors this process may run on, as /proc/self/status lists
   them ("0-1", "3", ...). *)
let cpus_allowed () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> ""
        | Some line -> (
            match String.split_on_char ':' line with
            | [ "Cpus_allowed_list"; v ] -> String.trim v
            | _ -> scan ())
      in
      scan ())

(* Read every complete line the child has written, waiting up to
   [wait_s] for data. *)
let drain ?(wait_s = 0.0) () =
  match !child with
  | None -> ()
  | Some (_, fd) ->
      let buf = Bytes.create 4096 in
      let rec read_all () =
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes partial buf 0 k;
            read_all ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      in
      (match Unix.select [ fd ] [] [] wait_s with
      | [], _, _ -> ()
      | _ -> read_all ());
      let text = Buffer.contents partial in
      Buffer.clear partial;
      let lines = String.split_on_char '\n' text in
      let rec parse = function
        | [] -> ()
        | [ last ] -> Buffer.add_string partial last
        | line :: rest ->
            Scanf.sscanf line "%f %f" (fun t d -> samples := (t, d) :: !samples);
            parse rest
      in
      parse lines

(* Block until the child has reported a chunk that started after [t]. *)
let wait_past t =
  let deadline = Unix.gettimeofday () +. (30.0 *. every_s) in
  let past () = match !samples with (s, _) :: _ -> s > t | [] -> false in
  while (not (past ())) && Unix.gettimeofday () < deadline do
    drain ~wait_s:every_s ()
  done

let start () =
  if !child = None then begin
    let cpus = cpus_allowed () in
    if String.contains cpus ',' || String.contains cpus '-' then
      failwith
        (Printf.sprintf
           "the reference must share one processor with the benchmark, but it may run on %s: \
            run it through perfbench/run.py, which pins it"
           cpus);
    let rd, wr = Unix.pipe ~cloexec:true () in
    let exe = Sys.executable_name in
    let pid = Unix.create_process exe [| exe; "--reference" |] Unix.stdin wr Unix.stderr in
    Unix.close wr;
    Unix.set_nonblock rd;
    child := Some (pid, rd);
    at_exit stop;
    (* the child has settled once it reports *)
    wait_past 0.0
  end

(* [f]'s result, the wall time it started and the seconds it took. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, t0, Unix.gettimeofday () -. t0)

type scale = {
  raw : float;  (* wall seconds, chunks excluded *)
  scaled : float;  (* the same at nominal machine speed *)
  slowdown_at : float -> float;  (* the machine's slowdown at a wall time *)
  busy : float -> float -> float;  (* chunk seconds within a wall interval *)
}

(* Slowdown at a time: the median of the chunk that started last before
   it, the one before and the one after, so a chunk that was itself
   preempted does not set it. *)
let scale_of chunks ~t0 ~t1 =
  let a = Array.of_list chunks in
  let n = Array.length a in
  let dur i = snd a.(max 0 (min (n - 1) i)) in
  let slow i =
    let xs = List.sort Float.compare [ dur (i - 1); dur i; dur (i + 1) ] in
    List.nth xs 1 *. 1e3 /. nominal_ms
  in
  let index t =
    let rec find i = if i + 1 < n && fst a.(i + 1) <= t then find (i + 1) else i in
    find 0
  in
  let slowdown_at t = if n = 0 then 1.0 else slow (index t) in
  let busy u v =
    List.fold_left
      (fun acc (s, d) -> acc +. Float.max 0.0 (Float.min v (s +. d) -. Float.max u s))
      0.0 chunks
  in
  (* split [t0, t1] at every chunk start inside it *)
  let cuts = List.filter (fun t -> t > t0 && t < t1) (List.map fst chunks) in
  let bounds = (t0 :: cuts) @ [ t1 ] in
  let rec pieces (raw, scaled) = function
    | u :: (v :: _ as rest) ->
        let w = v -. u -. busy u v in
        pieces (raw +. w, scaled +. (w /. slowdown_at u)) rest
    | _ -> (raw, scaled)
  in
  let raw, scaled = pieces (0.0, 0.0) bounds in
  { raw; scaled; slowdown_at; busy }

(* A timing taken without the reference (the traced run's). *)
let unscaled dt = { raw = dt; scaled = dt; slowdown_at = (fun _ -> 1.0); busy = (fun _ _ -> 0.0) }

(* Run [f]: its result and its timing. The heap is collected first, so
   garbage left by earlier work does not land on [f]'s bill. *)
let measure f =
  start ();
  Gc.compact ();
  drain ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  wait_past t1;
  let chunks = List.rev (List.filter (fun (s, _) -> s >= t0 -. 1.0) !samples) in
  (r, scale_of chunks ~t0 ~t1)
