(* The [serve] workload: a compartmentalised and a monolithic server at
   N=4 replay the same seeded [Serve.Workload] stream, two chunks of
   4096 requests per pass.  The load is a closed loop with one client:
   the simulated server is one machine, so the next request is written
   when the previous response returns.  Per pass each server is created
   and booted once, and [Server.reset] runs before each chunk.

   Pass k serves chunks 2k and 2k+1 of the stream, so a run covers
   [min_passes] x 8192 distinct requests per server.  The simulated
   figures (cycles, compart-over-mono overhead, crossing percentiles)
   and the allocation rate are taken over exactly those first
   [min_passes] passes, so they repeat exactly for a seed however many
   passes the host manages in --seconds; one pass's 8192 requests alone
   leave the crossing tail too seed-dependent to compare. *)

module Server = Serve.Server
module Workload = Serve.Workload

let n_workers = 4
let chunks = 2
let chunk_size = 4096
let requests = chunks * chunk_size
let min_passes = 4

(* Create + boot takes a few milliseconds, too little for one sample per
   pass to give a steady median, so each pass boots each server [boots]
   times and serves on the last one. *)
let boots = 3

type side = {
  codes : int array; (* Server.response_code per request *)
  latency : int array; (* simulated cycles per request *)
  host_ns : int array; (* host time per serve_one call *)
  instret : int; (* retired inside serve_one calls *)
  words : float; (* minor words inside serve_one calls *)
  boot_ns : int array; (* create + boot, per boot *)
  reset_ns : int; (* both resets *)
  counters : Obs.Counters.t; (* summed over the chunks *)
}

let class_of = function
  | Server.Served _ -> Some Workload.Expect_served
  | Server.Rejected_kind -> Some Workload.Expect_reject_kind
  | Server.Rejected_trap _ -> Some Workload.Expect_reject_trap
  | Server.Abnormal _ -> None

(* Serve the stream on one freshly booted server.  [check] receives each
   request's checks as they are made. *)
let run_side rec_ ~seed ~pass ~isolation check =
  let time ?req name f = Spans.time rec_ ?req name f in
  let boot_ns = Array.make boots 0 and server = ref None in
  for i = 0 to boots - 1 do
    (* A collected heap for each server, as for each olden point. *)
    server := None;
    Gc.full_major ();
    let s, t_create, _ = time "serve.create" (fun () -> Server.create ~isolation ~n:n_workers ()) in
    let (), t_boot, _ = time "serve.boot" (fun () -> Server.boot s) in
    boot_ns.(i) <- t_create + t_boot;
    server := Some s
  done;
  let s = Option.get !server in
  let m = s.Server.machine in
  let codes = Array.make requests 0 and latency = Array.make requests 0 in
  let host_ns = Array.make requests 0 in
  let instret = ref 0 and words = ref 0.0 and reset_ns = ref 0 in
  let counters = Obs.Counters.create () in
  for c = 0 to chunks - 1 do
    let index = (pass * chunks) + c in
    let (), _, _ =
      time "serve.chunk" (fun () ->
          let reqs, _, _ =
            time "serve.gen_chunk" (fun () ->
                Workload.gen_chunk ~mix:Workload.default_mix ~base_seed:(Int64.of_int seed) ~index
                  ~count:chunk_size)
          in
          let (), t_reset, _ = time "serve.reset" (fun () -> Server.reset s) in
          reset_ns := !reset_ns + t_reset;
          let before, _, _ =
            time "kernel.read_counters" (fun () -> Os.Kernel.read_counters (Server.kernel s))
          in
          Array.iteri
            (fun j req ->
              let id = (c * chunk_size) + j in
              let i0 = m.Machine.instret in
              let (response, cycles), ns, w =
                time ~req:((index * chunk_size) + j) "serve.serve_one" (fun () -> Server.serve_one s req)
              in
              instret := !instret + (m.Machine.instret - i0);
              words := !words +. w;
              codes.(id) <- Server.response_code response;
              latency.(id) <- cycles;
              host_ns.(id) <- ns;
              check id
                [
                  (match response with
                  | Server.Abnormal msg -> Some (Printf.sprintf "request %d abnormal: %s" id msg)
                  | _ -> None);
                  Tally.check
                    (class_of response = Some (Workload.expected req))
                    (Printf.sprintf "request %d: response class differs from Workload.expected" id);
                ])
            reqs;
          let after, _, _ =
            time "kernel.read_counters" (fun () -> Os.Kernel.read_counters (Server.kernel s))
          in
          Obs.Counters.accumulate counters (Obs.Counters.diff after before))
    in
    ()
  done;
  {
    codes;
    latency;
    host_ns;
    instret = !instret;
    words = !words;
    boot_ns;
    reset_ns = !reset_ns;
    counters;
  }

let digest codes = Array.fold_left Serve.Sweep.fold_digest 0L codes

(* One pass: both servers, then the per-request oracles -- each request's
   own checks, agreement of the two isolation modes' responses, and
   agreement with a reference pass over the same chunks, when given. *)
let run_pass rec_ ~seed ~pass ~reference tally =
  let pending = Array.make (2 * requests) [] in
  let side k isolation =
    run_side rec_ ~seed ~pass ~isolation (fun id errs ->
        pending.((k * requests) + id) <- Tally.errors errs)
  in
  let (compart, mono), _, _ =
    Spans.time rec_ "pass" (fun () ->
        let c = side 0 Serve.Scenario.Compart in
        let m = side 1 Serve.Scenario.Mono in
        (c, m))
  in
  List.iteri
    (fun k (s : side) ->
      for id = 0 to requests - 1 do
        let errs =
          pending.((k * requests) + id)
          @ Tally.errors
              [
                Tally.check
                  (compart.codes.(id) = mono.codes.(id))
                  (Printf.sprintf "request %d: compart and mono responses differ" id);
                Option.bind reference (fun ((rc : side), (rm : side)) ->
                    let r = if k = 0 then rc else rm in
                    Tally.check
                      (r.latency.(id) = s.latency.(id) && r.codes.(id) = s.codes.(id))
                      (Printf.sprintf "request %d: differs from the reference pass" id));
              ]
        in
        Tally.record tally errs
      done)
    [ compart; mono ];
  (compart, mono)

let sum_latency s = Array.fold_left ( + ) 0 s.latency
let sum_host s = Array.fold_left ( + ) 0 s.host_ns
let fsum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let us ns = float_of_int ns /. 1e3

let print_tail what scale unit_ sorted =
  match Stats.tail sorted with
  | Some t ->
      Printf.printf "  %s tail: %s = %.1f %s (n=%d)\n" what t.Stats.label
        (float_of_int t.Stats.value /. scale)
        unit_ t.Stats.n
  | None -> ()

let sides passes = List.concat_map (fun (c, m) -> [ c; m ]) passes

(* Over any list of passes, so that a run's figure is the total over
   all its passes (see [Runs.end_to_end]). *)
let mips passes =
  let s = sides passes in
  Report.ratio (float_of_int (List.fold_left (fun a x -> a + x.instret) 0 s))
    (float_of_int (List.fold_left (fun a x -> a + sum_host x) 0 s))
  *. 1e3

let req_per_s passes =
  let s = sides passes in
  let ns = List.fold_left (fun a x -> a + sum_host x + x.reset_ns) 0 s in
  Report.ratio (float_of_int (List.length s * requests)) (float_of_int ns /. 1e9)

let end_to_end passes =
  let sim = List.filteri (fun i _ -> i < min_passes) passes in
  let host = List.map (fun s -> s.host_ns) (sides passes) |> Array.concat |> Stats.sorted in
  let deltas =
    List.map (fun (c, m) -> Array.init requests (fun i -> c.latency.(i) - m.latency.(i))) sim
    |> Array.concat |> Stats.sorted
  in
  let cycles pick = fsum (fun p -> float_of_int (sum_latency (pick p))) sim in
  let insns = fsum (fun (c, m) -> float_of_int (c.instret + m.instret)) sim in
  Printf.printf "  %d passes of 2 x %d requests (compart, mono; N=%d); simulated figures over the first %d\n"
    (List.length passes) requests n_workers min_passes;
  List.iteri
    (fun k (c, m) ->
      Printf.printf "  pass %d response digests: compart %Lx, mono %Lx\n" k (digest c.codes)
        (digest m.codes))
    passes;
  Printf.printf "  serve_one host time: n=%d; crossing: n=%d; p50 and p99 are nearest-rank\n"
    (Array.length host) (Array.length deltas);
  Printf.printf "  sim_mips per pass: %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (mips [ p ])) passes));
  print_tail "serve_one" 1e3 "us" host;
  print_tail "crossing" 1.0 "cycles" deltas;
  Report.
    [
      metric "setup_s" "s"
        (Stats.median
           (Array.of_list
              (List.concat_map
                 (fun (c, m) -> List.init boots (fun i -> float_of_int (c.boot_ns.(i) + m.boot_ns.(i))))
                 passes))
        /. 1e9);
      metric "sim_mips" "Minsn/s" (mips passes);
      metric "host_req_per_s" "1/s" (req_per_s passes);
      metric "req_host_us_p50" "us" (us (Serve.Sweep.percentile host 0.50));
      metric "req_host_us_p99" "us" (us (Serve.Sweep.percentile host 0.99));
      metric "alloc_words_per_insn" "words/insn"
        (ratio (fsum (fun (c, m) -> c.words +. m.words) sim) insns);
      metric "peak_heap_mb" "MiB" (Host.peak_heap_mb ());
      metric "sim_cycles" "cycles" (cycles fst +. cycles snd);
      metric "cheri_overhead_pct" "%" (100.0 *. (ratio (cycles fst) (cycles snd) -. 1.0));
      metric "crossing_p50_cycles" "cycles" (float_of_int (Serve.Sweep.percentile deltas 0.50));
      metric "crossing_p99_cycles" "cycles" (float_of_int (Serve.Sweep.percentile deltas 0.99));
    ]

let measure ~seed ~seconds tally =
  let rec_ = Spans.create ~traced:false () in
  end_to_end
    (Runs.repeat ~min:min_passes ~seconds (fun pass ->
         run_pass rec_ ~seed ~pass ~reference:None tally))

(* The traced run: per round an untraced pass and the same chunks
   traced, checked against it; the per-layer split comes from the traced
   passes' spans. *)
let trace ~seed ~seconds tally =
  let untraced = Spans.create ~traced:false () in
  let traced = Spans.create ~traced:true () in
  let timed rec_ ~pass ~reference =
    let t0 = Spans.now_ns () in
    let g0 = Host.gc () in
    let p = run_pass rec_ ~seed ~pass ~reference tally in
    let g1 = Host.gc () in
    (p, Spans.now_ns () - t0, (g1.Host.minor - g0.Host.minor, g1.Host.major - g0.Host.major))
  in
  (* Warm-up, as in [Runs.trace]. *)
  ignore (run_pass untraced ~seed ~pass:0 ~reference:None tally);
  let rounds =
    Runs.repeat ~min:1 ~seconds (fun pass ->
        let u, u_ns, gc = timed untraced ~pass ~reference:None in
        Gc.full_major ();
        let t, t_ns, _ = timed traced ~pass ~reference:(Some u) in
        (t, t_ns - u_ns, gc))
  in
  let totals = Spans.totals traced in
  let (compart, mono), _, (gc_minor, gc_major) = List.hd rounds in
  let counters = Obs.Counters.create () in
  Obs.Counters.accumulate counters compart.counters;
  Obs.Counters.accumulate counters mono.counters;
  let insns = List.fold_left (fun a ((c, m), _, _) -> a + c.instret + m.instret) 0 rounds in
  let serve = Spans.find totals "serve.serve_one" in
  let p50 pick =
    let host = List.map (fun (p, _, _) -> (pick p).host_ns) rounds |> Array.concat |> Stats.sorted in
    us (Serve.Sweep.percentile host 0.50)
  in
  let create = Spans.find totals "serve.create" and boot = Spans.find totals "serve.boot" in
  ( [ ("trace.base", traced) ],
    {
      Layers.zero with
      boot_ms =
        Report.ratio
          (float_of_int (create.Spans.self_ns + boot.Spans.self_ns))
          (float_of_int boot.Spans.count)
        /. 1e6;
      ns_per_insn = Report.ratio (float_of_int serve.Spans.self_ns) (float_of_int insns);
      words_per_insn = Report.ratio serve.Spans.words (float_of_int insns);
      counters;
      ccalls_per_req =
        Report.ratio
          (Int64.to_float (Obs.Counters.get compart.counters Obs.Counters.ccalls))
          (float_of_int requests);
      reset_us = Layers.per_call totals "serve.reset" ~scale:1e3;
      gen_ms = Layers.per_call totals "serve.gen_chunk" ~scale:1e6;
      req_us_p50_compart = p50 fst;
      req_us_p50_mono = p50 snd;
      requests = 2 * requests;
      gc_minor;
      gc_major;
      overhead_ms =
        Stats.median (Array.of_list (List.map (fun (_, d, _) -> float_of_int d) rounds)) /. 1e6;
    } )
