(* The program-run workloads, [olden] and [profile]: each operation
   compiles, assembles and loads one Olden kernel on a fresh machine
   (empty modelled caches, as in the paper's runs) and runs it to exit.

   A point is assembled from the same public calls [Exp.Bench_run.run]
   makes -- [Minic.Driver.compile], [Asm.Assembler.assemble],
   [Exp.Bench_run.machine_for], [Os.Kernel.attach], [Os.Kernel.exec],
   [Machine.run], [Os.Kernel.read_counters] -- each timed on its own, so
   set-up is measured apart from simulation. *)

type point = { bench : string; mode : Minic.Layout.mode; param : int }

let point_name p = Printf.sprintf "%s/%s/%d" p.bench (Minic.Layout.mode_name p.mode) p.param

(* What every run of a kernel prints at the benchmark's parameters, in
   every pointer mode. *)
let expected_output = function
  | "bisort", 12 -> Some "0|2037527392"
  | "mst", 160 -> Some "9990"
  | "treeadd", 14 -> Some "16383"
  | "perimeter", 8 -> Some "824"
  | _ -> None

(* How a pass configures each machine.  Only [timing] changes simulated
   figures; [engine] and [probe] are host-side and must leave every
   architectural counter unchanged. *)
type variant = { label : string; timing : bool; engine : Machine.engine; probe : bool }

let base ~probe = { label = "base"; timing = true; engine = Machine.Superblock; probe }

type run = {
  point : point;
  exit_code : int;
  output : string;
  counters : Obs.Counters.t;
  setup_ns : int; (* compile + assemble + create + attach + exec *)
  run_ns : int; (* Machine.run *)
  op_ns : int; (* the whole operation, counter read-out included *)
  words : float; (* minor words allocated inside Machine.run *)
}

let instret r = Obs.Counters.get r.counters Obs.Counters.instret |> Int64.to_int
let cycles r = Obs.Counters.get r.counters Obs.Counters.cycles |> Int64.to_int

let probe_for (v : variant) =
  if v.probe then
    Some (Obs.Probe.create ~profile:(Obs.Profile.create ()) ~attrib:(Obs.Attrib.create ()) ())
  else None

let run_point rec_ (v : variant) p =
  let time name f = Spans.time rec_ name f in
  let r, op_ns, _ =
    Spans.time rec_ "point" (fun () ->
        let source = List.assoc p.bench Olden.Minic_src.all in
        let asm, t_compile, _ =
          time "minic.compile" (fun () ->
              Minic.Driver.compile ~mode:p.mode (Olden.Minic_src.instantiate source ~param:p.param))
        in
        let program, t_assemble, _ = time "asm.assemble" (fun () -> Asm.Assembler.assemble asm) in
        let m, t_create, _ = time "machine.create" (fun () -> Exp.Bench_run.machine_for p.mode) in
        Machine.set_engine m v.engine;
        Machine.set_timing m v.timing;
        Machine.set_probe m (probe_for v);
        let k, t_attach, _ = time "kernel.attach" (fun () -> Os.Kernel.attach m) in
        let (), t_exec, _ = time "kernel.exec" (fun () -> Os.Kernel.exec k program) in
        let exit_code, run_ns, words =
          time "machine.run" (fun () -> Machine.run ~max_insns:20_000_000_000L m)
        in
        let counters, _, _ = time "kernel.read_counters" (fun () -> Os.Kernel.read_counters k) in
        let output =
          String.split_on_char '\n' (Os.Kernel.console k)
          |> List.filter (fun s -> String.trim s <> "")
          |> String.concat "|"
        in
        {
          point = p;
          exit_code;
          output;
          counters;
          setup_ns = t_compile + t_assemble + t_create + t_attach + t_exec;
          run_ns;
          op_ns = 0;
          words;
        })
  in
  { r with op_ns }

(* The pass order is a seeded permutation: the kernels and parameters are
   fixed (the outputs and the committed counters are pinned to them), so
   the seed varies the order the points run in, and with it the host
   state each one starts from. *)
let permutation ~seed ~pass n =
  let st = Random.State.make [| seed; pass |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* One pass over every point; results come back in [points] order.
   Each point starts from a collected heap, so the previous machine's
   64 MiB image is gone before the next is created: the peak heap is one
   point's, whatever the order. *)
let run_pass rec_ v ~seed ~pass points =
  let pts = Array.of_list points in
  let out = Array.make (Array.length pts) None in
  let (), _, _ =
    Spans.time rec_ ("pass." ^ v.label) (fun () ->
        Array.iter
          (fun i ->
            Gc.full_major ();
            out.(i) <- Some (run_point rec_ v pts.(i)))
          (permutation ~seed ~pass (Array.length pts)))
  in
  Array.to_list (Array.map Option.get out)

(* --- output oracles ------------------------------------------------------ *)

(* Counters a probe fills in, and the superblock tier's host counters:
   neither is part of the architectural oracle. *)
let probe_fields = [ "cap_ops"; "cap_loads"; "cap_stores"; "branches"; "samples" ]
let sb_fields = [ "sb_translations"; "sb_dispatches"; "sb_retired" ]

let counter_mismatches ~skip ~expected (actual : Obs.Counters.t) =
  List.filter_map
    (fun (name, want) ->
      if List.mem name skip then None
      else
        match Obs.Counters.index_of_name name with
        | None -> None
        | Some i ->
            let got = Obs.Counters.get actual i in
            if Int64.equal got want then None else Some (Printf.sprintf "%s %Ld<>%Ld" name got want))
    expected

let first_mismatches l =
  match l with [] -> None | l -> Some (String.concat "," (List.filteri (fun i _ -> i < 4) l))

(* The checks one run must pass: exit 0, the kernel's known output, the
   committed counters (when the workload has them and the variant keeps
   the timing model), and the counters of the same point in the
   reference pass, when there is one. *)
let check_run ~baseline ~reference ~ref_skip v r =
  let name = point_name r.point in
  let expected = expected_output (r.point.bench, r.point.param) in
  let committed =
    match baseline with
    | Some b when v.timing -> (
        match Obs.Baseline.find b name with
        | Some e -> Some e.Obs.Baseline.counters
        | None -> None)
    | _ -> None
  in
  Tally.errors
    [
      Tally.check (r.exit_code = 0) (Printf.sprintf "%s exited %d" name r.exit_code);
      Tally.check
        (expected = Some r.output)
        (Printf.sprintf "%s printed %S" name r.output);
      (match (baseline, committed) with
      | Some _, None when v.timing -> Some (name ^ " missing from the committed counters")
      | _ -> None);
      Option.bind committed (fun expected ->
          counter_mismatches ~skip:(probe_fields @ sb_fields) ~expected r.counters
          |> first_mismatches
          |> Option.map (fun m -> name ^ " differs from the committed counters: " ^ m));
      Option.bind reference (fun (ref_run : run) ->
          counter_mismatches ~skip:ref_skip ~expected:(Obs.Counters.to_assoc ref_run.counters)
            r.counters
          |> first_mismatches
          |> Option.map (fun m -> name ^ " differs from its reference pass: " ^ m));
    ]

let record_pass tally ~baseline ~reference ~ref_skip v runs =
  List.iteri
    (fun i r ->
      let reference = Option.map (fun rs -> List.nth rs i) reference in
      Tally.record tally (check_run ~baseline ~reference ~ref_skip v r))
    runs

(* --- the workloads ------------------------------------------------------- *)

type spec = {
  points : point list;
  probe : bool; (* attach a sampling profiler + miss attribution to every machine *)
  protected : Minic.Layout.mode; (* paired against [unprotected] per kernel *)
  unprotected : Minic.Layout.mode;
  committed : Obs.Baseline.t option; (* the counters every timed run must reproduce *)
  variants : variant list; (* the traced run's extra passes *)
}

let untimed = { label = "untimed"; timing = false; engine = Machine.Superblock; probe = false }
let plain = { label = "plain"; timing = true; engine = Machine.Plain; probe = false }
let bare = { label = "bare"; timing = true; engine = Machine.Superblock; probe = false }

(* Which counters a variant pass must share with the base pass: a probe
   adds its own fields, the plain engine has no superblock counters, and
   without the timing model only the retirement count is comparable. *)
let ref_skip (v : variant) =
  if not v.timing then List.filter (( <> ) "instret") (Array.to_list Obs.Counters.names)
  else if v.engine = Machine.Plain then sb_fields
  else if not v.probe then probe_fields
  else []

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let median_of f passes = Stats.median (Array.of_list (List.map f passes))

(* Per-point means over passes, in point order. *)
let per_point_mean f passes =
  List.mapi (fun i _ -> sum (fun rs -> f (List.nth rs i)) passes / List.length passes) (List.hd passes)

(* Paired protected - unprotected cycles per kernel, and the protected
   share over the unprotected total. *)
let pairs spec runs =
  List.filter_map
    (fun r ->
      if r.point.mode <> spec.protected then None
      else
        List.find_opt
          (fun b ->
            b.point.mode = spec.unprotected && b.point.bench = r.point.bench
            && b.point.param = r.point.param)
          runs
        |> Option.map (fun b -> (cycles r, cycles b)))
    runs

let elapsed_s t0 = float_of_int (Spans.now_ns () - t0) /. 1e9

(* Repeat [f] until [seconds] have passed and it has run at least [min]
   times; each repetition starts from a collected heap so one pass's
   garbage does not bill the next. *)
let repeat ~min ~seconds f =
  let t0 = Spans.now_ns () in
  let rec go i acc =
    if i >= min && elapsed_s t0 >= seconds then List.rev acc
    else begin
      Gc.full_major ();
      go (i + 1) (f i :: acc)
    end
  in
  go 0 []

(* A few passes whatever --seconds says: setup_s is a median over them. *)
let min_passes = 3

(* Host time is totalled over every pass rather than taken as a median of
   passes: the host moves between fast and slow states lasting seconds,
   and a total weighs each state by the time spent in it where a median
   would pick one of them. *)
let end_to_end spec passes =
  let first = List.hd passes in
  let all = List.concat passes in
  let op_mean = Stats.sorted (Array.of_list (per_point_mean (fun r -> r.op_ns) passes)) in
  let pairs = pairs spec first in
  let deltas = Stats.sorted (Array.of_list (List.map (fun (p, u) -> p - u) pairs)) in
  Printf.printf "  %d passes of %d runs; host times are totals over the passes\n"
    (List.length passes) (List.length first);
  let pass_mips rs =
    Report.ratio (float_of_int (sum instret rs)) (float_of_int (sum (fun r -> r.run_ns) rs)) *. 1e3
  in
  Printf.printf "  sim_mips per pass: %s\n"
    (String.concat " " (List.map (fun rs -> Printf.sprintf "%.3f" (pass_mips rs)) passes));
  Printf.printf "  per-run mean host time: n=%d; crossing: n=%d; p99 of so few is their maximum\n"
    (Array.length op_mean) (Array.length deltas);
  let us ns = float_of_int ns /. 1e3 in
  Report.
    [
      metric "setup_s" "s"
        (median_of (fun rs -> float_of_int (sum (fun r -> r.setup_ns) rs)) passes /. 1e9);
      metric "sim_mips" "Minsn/s" (pass_mips all);
      metric "host_req_per_s" "1/s"
        (ratio (float_of_int (List.length all)) (float_of_int (sum (fun r -> r.op_ns) all) /. 1e9));
      metric "req_host_us_p50" "us" (us (Serve.Sweep.percentile op_mean 0.50));
      metric "req_host_us_p99" "us" (us (Serve.Sweep.percentile op_mean 0.99));
      metric "alloc_words_per_insn" "words/insn"
        (ratio (fsum (fun r -> r.words) all) (float_of_int (sum instret all)));
      metric "peak_heap_mb" "MiB" (Host.peak_heap_mb ());
      metric "sim_cycles" "cycles" (float_of_int (sum cycles first));
      metric "cheri_overhead_pct" "%"
        (100.0
        *. (ratio (float_of_int (sum fst pairs)) (float_of_int (sum snd pairs)) -. 1.0));
      metric "crossing_p50_cycles" "cycles" (float_of_int (Serve.Sweep.percentile deltas 0.50));
      metric "crossing_p99_cycles" "cycles" (float_of_int (Serve.Sweep.percentile deltas 0.99));
    ]

let measure spec ~seed ~seconds tally =
  let rec_ = Spans.create ~traced:false () in
  let v = base ~probe:spec.probe in
  let reference = ref None in
  let passes =
    repeat ~min:min_passes ~seconds (fun pass ->
        let runs = run_pass rec_ v ~seed ~pass spec.points in
        record_pass tally ~baseline:spec.committed ~reference:!reference ~ref_skip:[] v runs;
        if !reference = None then reference := Some runs;
        runs)
  in
  end_to_end spec passes

(* The traced run: per round, one untraced pass (the reference for the
   oracles and for the tracing overhead), the same pass traced, then one
   traced pass per variant.  Spans from every round accumulate in one
   recorder per lane. *)
let trace spec ~seed ~seconds tally =
  let v = base ~probe:spec.probe in
  let untraced = Spans.create ~traced:false () in
  let lanes = List.map (fun v -> (v, Spans.create ~traced:true ())) (v :: spec.variants) in
  let timed_pass rec_ v ~pass =
    let t0 = Spans.now_ns () in
    let runs = run_pass rec_ v ~seed ~pass spec.points in
    (runs, Spans.now_ns () - t0)
  in
  (* The process's first pass pays for growing the heap; an untimed
     warm-up pass keeps that out of whichever lane would run first. *)
  let warm = run_pass untraced v ~seed ~pass:0 spec.points in
  record_pass tally ~baseline:spec.committed ~reference:None ~ref_skip:[] v warm;
  let rounds =
    repeat ~min:1 ~seconds (fun round ->
        let g0 = Host.gc () in
        let u_runs, u_ns = timed_pass untraced v ~pass:round in
        let g1 = Host.gc () in
        record_pass tally ~baseline:spec.committed ~reference:(Some warm) ~ref_skip:[] v u_runs;
        let lane_ns =
          List.map
            (fun (lv, rec_) ->
              Gc.full_major ();
              let runs, ns = timed_pass rec_ lv ~pass:round in
              record_pass tally ~baseline:spec.committed ~reference:(Some u_runs)
                ~ref_skip:(ref_skip lv) lv runs;
              (lv.label, ns, sum instret runs))
            lanes
        in
        (u_ns, g1.Host.minor - g0.Host.minor, g1.Host.major - g0.Host.major, lane_ns))
  in
  let lane_insns label =
    List.fold_left
      (fun acc (_, _, _, l) ->
        acc + List.fold_left (fun a (lb, _, n) -> if lb = label then a + n else a) 0 l)
      0 rounds
  in
  let ns_per_insn label =
    match List.find_opt (fun (v, _) -> v.label = label) lanes with
    | None -> 0.0
    | Some (_, rec_) ->
        Report.ratio
          (float_of_int (Spans.find (Spans.totals rec_) "machine.run").Spans.self_ns)
          (float_of_int (lane_insns label))
  in
  let base_rec = snd (List.hd lanes) in
  let totals = Spans.totals base_rec in
  let counters = Obs.Counters.create () in
  List.iter (fun r -> Obs.Counters.accumulate counters r.counters) warm;
  let base_ns = ns_per_insn "base" in
  let overhead =
    Stats.median
      (Array.of_list
         (List.map
            (fun (u_ns, _, _, l) ->
              let _, t_ns, _ = List.hd l in
              float_of_int (t_ns - u_ns))
            rounds))
  in
  let _, gc_minor, gc_major, _ = List.hd rounds in
  ( List.map (fun (v, r) -> ("trace." ^ v.label, r)) lanes,
    {
      Layers.zero with
      compile_ms = Layers.per_call totals "minic.compile" ~scale:1e6;
      assemble_ms = Layers.per_call totals "asm.assemble" ~scale:1e6;
      create_ms = Layers.per_call totals "machine.create" ~scale:1e6;
      ns_per_insn = base_ns;
      words_per_insn =
        Report.ratio (Spans.find totals "machine.run").Spans.words (float_of_int (lane_insns "base"));
      untimed_ns_per_insn = ns_per_insn "untimed";
      plain_ns_per_insn = ns_per_insn "plain";
      observer_ns_per_insn =
        (if spec.probe then base_ns -. ns_per_insn "bare" else 0.0);
      counters;
      gc_minor;
      gc_major;
      overhead_ms = overhead /. 1e6;
    } )
