(* perfbench: the simulator's benchmark.  Run from the repository root:

     dune exec perfbench/main.exe -- --workload olden|serve|profile \
       --seed N --seconds S --trace 0|1

   (or `bash perfbench/run.sh ...`, which builds first).  Prints a
   human-readable report and, as the last stdout line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer metrics of a
   traced run (--trace 1).  Exits 1 if any output oracle failed, 2 on a
   usage error or a missing input file.  See perfbench/README.md. *)

open Perfbench

let committed_counters = "bench/baselines/BENCH_obs.json"
let trace_dir = "perfbench/out"

let points benches modes =
  List.concat_map
    (fun (bench, param) -> List.map (fun mode -> { Runs.bench; mode; param }) modes)
    benches

let olden committed =
  {
    Runs.points =
      List.map
        (fun (p : Exp.Obs_bench.point) ->
          { Runs.bench = p.Exp.Obs_bench.bench; mode = p.Exp.Obs_bench.mode; param = p.Exp.Obs_bench.param })
        Exp.Obs_bench.fig4_points;
    probe = false;
    protected = Minic.Layout.Cheri;
    unprotected = Minic.Layout.Legacy;
    committed = Some committed;
    variants = [ Runs.untimed; Runs.plain ];
  }

let profile =
  {
    Runs.points =
      points
        [ ("treeadd", 14); ("bisort", 12) ]
        [ Minic.Layout.Legacy; Minic.Layout.Cheri; Minic.Layout.Cheri128 ];
    probe = true;
    protected = Minic.Layout.Cheri;
    unprotected = Minic.Layout.Legacy;
    committed = None;
    variants = [ Runs.bare ];
  }

let usage () =
  prerr_endline
    "usage: main.exe --workload olden|serve|profile --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let args = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k args with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload [ "olden"; "serve"; "profile" ]) then usage ();
  let trace = int "trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "seconds" in
  if seconds < 1 then usage ();
  (workload, int "seed", float_of_int seconds, trace = 1)

let write_trace ~workload ~seed ~meta recorders =
  if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
  let path = Printf.sprintf "%s/%s-seed%d.trace.json" trace_dir workload seed in
  let oc = open_out path in
  Spans.write_chrome oc ~meta recorders;
  close_out oc;
  Printf.printf "  spans: %s (%d)\n" path
    (List.fold_left (fun a (_, r) -> a + Spans.length r) 0 recorders)

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  let committed =
    match Obs.Baseline.load committed_counters with
    | Ok b -> b
    | Error msg ->
        prerr_endline ("perfbench: cannot load the committed counters: " ^ msg);
        exit 2
  in
  let meta = Host.fingerprint () in
  Printf.printf "perfbench %s seed=%d seconds=%.0f trace=%b\n" workload seed seconds traced;
  Printf.printf "host: %s\n"
    (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) meta));
  let tally = Tally.create () in
  let metrics =
    if traced then begin
      let recorders, layers =
        match workload with
        | "olden" -> Runs.trace (olden committed) ~seed ~seconds tally
        | "profile" -> Runs.trace profile ~seed ~seconds tally
        | _ -> Serve_wl.trace ~seed ~seconds tally
      in
      write_trace ~workload ~seed ~meta:(("workload", workload) :: meta) recorders;
      Layers.metrics layers
    end
    else
      match workload with
      | "olden" -> Runs.measure (olden committed) ~seed ~seconds tally
      | "profile" -> Runs.measure profile ~seed ~seconds tally
      | _ -> Serve_wl.measure ~seed ~seconds tally
  in
  Report.print_table metrics;
  let finite = List.for_all (fun m -> Float.is_finite m.Report.value) metrics in
  let correct = tally.Tally.failed = 0 && finite in
  Printf.printf "  failed %d of %d operations (%.4f%%)\n" tally.Tally.failed tally.Tally.attempted
    (100.0 *. Tally.failure_share tally);
  List.iter (fun n -> Printf.printf "  FAIL %s\n" n) tally.Tally.notes;
  if not finite then print_endline "  FAIL a metric is not a finite number";
  print_endline
    (Report.json_line ~correct ~attempted:tally.Tally.attempted ~failed:tally.Tally.failed
       (List.filter (fun m -> Float.is_finite m.Report.value) metrics));
  exit (if correct then 0 else 1)
