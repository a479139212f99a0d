module D = Iaccf_crypto.Digest32
module Codec = Iaccf_util.Codec

type t = { seqno : int; state : Hamt.t }

let make ~seqno state = { seqno; state }

let digest t =
  D.of_string
    (Codec.encode (fun w ->
         Codec.W.u64 w t.seqno;
         Codec.W.raw w (D.to_raw (Hamt.digest t.state))))

let serialize t =
  Codec.encode (fun w ->
      Codec.W.u64 w t.seqno;
      Codec.W.list w
        (fun (k, v) ->
          Codec.W.bytes w k;
          Codec.W.bytes w v)
        (Hamt.to_sorted_list t.state))

let deserialize s =
  Codec.decode s (fun r ->
      let seqno = Codec.R.u64 r in
      let entries =
        Codec.R.list r (fun r ->
            let k = Codec.R.bytes r in
            let v = Codec.R.bytes r in
            (k, v))
      in
      { seqno; state = Hamt.of_list entries })

let genesis = { seqno = 0; state = Hamt.empty }
