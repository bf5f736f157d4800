(* Operations attempted against operations failed.  An operation is one
   program run (olden, profile) or one request (serve); it fails when any
   of its output checks does, however many of them do, so [failed] never
   exceeds [attempted].  The first few failure messages are kept for the
   report. *)

type t = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let create () = { attempted = 0; failed = 0; notes = [] }
let max_notes = 20

(* Count one operation; [errors] are the messages of the checks it failed. *)
let record t errors =
  t.attempted <- t.attempted + 1;
  if errors <> [] then begin
    t.failed <- t.failed + 1;
    if List.length t.notes < max_notes then t.notes <- t.notes @ [ String.concat "; " errors ]
  end

(* An output check: [None] when it holds, the message otherwise. *)
let check cond msg = if cond then None else Some msg

let errors checks = List.filter_map Fun.id checks
let failure_share t = if t.attempted = 0 then 0.0 else float_of_int t.failed /. float_of_int t.attempted
