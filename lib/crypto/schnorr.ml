(* Scalars and encodings are 32-byte big-endian strings throughout. *)
type secret_key = { x : string; seed : string; pk_bytes : string }

(* [table] is the per-key fixed-base comb of y; built on demand for keys
   that verify repeatedly (replica keys, chatty clients). It is immutable
   after build, so concurrent readers are safe; a racing rebuild just
   wastes one build. *)
type public_key = { y : Fe.t; y_bytes : string; mutable table : Group.table option }

let signature_size = 64
let pp_public_key ppf pk = Format.pp_print_string ppf (Iaccf_util.Hex.encode pk.y_bytes)
let public_key_equal a b = String.equal a.y_bytes b.y_bytes
let one_bytes = String.make 31 '\000' ^ "\001"
let nonzero_scalar v = if String.for_all (( = ) '\000') v then one_bytes else v

let make_public x =
  let y_bytes = Group.pow_g x in
  { y = Fe.of_bytes y_bytes; y_bytes; table = None }

let keypair_of_seed seed =
  let x = nonzero_scalar (Group.scalar_of_bytes (Sha256.digest ("iaccf-sk" ^ seed))) in
  let pk = make_public x in
  let sk = { x; seed = Sha256.digest ("iaccf-nonce-key" ^ seed); pk_bytes = pk.y_bytes } in
  (sk, pk)

let public_key sk = make_public sk.x
let public_key_to_bytes pk = pk.y_bytes

let public_key_of_bytes s =
  Option.map (fun y -> { y; y_bytes = s; table = None }) (Group.element_of_bytes s)

let precompute pk =
  match pk.table with
  | Some _ -> ()
  | None -> pk.table <- Some (Group.make_table pk.y)

let has_table pk = pk.table <> None

let challenge r_bytes pk_bytes digest =
  Group.scalar_of_bytes (Sha256.digest_concat [ r_bytes; pk_bytes; digest ])

let sign sk digest =
  if String.length digest <> 32 then invalid_arg "Schnorr.sign: digest must be 32 bytes";
  let k = nonzero_scalar (Group.scalar_of_bytes (Hmac.mac ~key:sk.seed digest)) in
  let e = challenge (Group.pow_g k) sk.pk_bytes digest in
  e ^ Group.scalar_muladd e sk.x k

let verify pk digest ~signature =
  String.length digest = 32
  && String.length signature = 64
  &&
  let e = String.sub signature 0 32 and s = String.sub signature 32 32 in
  Group.is_scalar e
  && Group.is_scalar s
  &&
  (* R' = g^s * y^(n-e); y^n = 1, so this inverts y^e without divisions.
     Known keys pair their fixed-base comb with g's on one 32-step
     squaring chain; an unknown key's 4-bit windows run the full chain,
     with g's comb joining for its last 32 steps. *)
  let ne = Group.scalar_neg e in
  let r' =
    match pk.table with
    | Some table -> Group.multi_pow ~tables:[ (Group.g_table, s); (table, ne) ] []
    | None -> Group.multi_pow ~tables:[ (Group.g_table, s) ] [ (pk.y, ne) ]
  in
  String.equal e (challenge r' pk.y_bytes digest)
