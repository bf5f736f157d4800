(* Metrics as printed: a human-readable table on stdout followed, as the
   last line, by the one-line JSON result. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(* Ratios whose denominator can be zero on a workload that never calls
   the layer read as 0 there. *)
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Shortest decimal that reads back as the same float: every measured
   digit is kept. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let print_table metrics =
  List.iter (fun m -> Printf.printf "  %-28s %16s %s\n" m.name (number m.value) m.unit_) metrics

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed (String.concat ", " fields)
