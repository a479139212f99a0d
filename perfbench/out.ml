(* Everything a run leaves behind (persisted stores, the audit package,
   traces) goes under one directory of the checkout. *)

let dir = ".bench_out"

let ensure () = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
