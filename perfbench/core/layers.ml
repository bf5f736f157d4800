(* The per-layer figures of a traced run.  Every workload prints every
   field; a layer the workload never calls reads 0 (olden and profile
   boot no server, serve compiles nothing per operation, only profile
   attaches a probe).  Simulated-side fields come from one pass's
   summed counter file and repeat exactly. *)

type t = {
  compile_ms : float; (* mean self time per Minic.Driver.compile *)
  assemble_ms : float; (* per Asm.Assembler.assemble *)
  create_ms : float; (* per Exp.Bench_run.machine_for *)
  boot_ms : float; (* per Serve.Server.create + boot *)
  ns_per_insn : float; (* self time of the run calls per retired instruction *)
  words_per_insn : float; (* minor words inside the run calls per instruction *)
  untimed_ns_per_insn : float; (* the same, timing model off *)
  plain_ns_per_insn : float; (* the same, Plain engine *)
  observer_ns_per_insn : float; (* with the probe minus without *)
  counters : Obs.Counters.t; (* one pass, summed over its runs *)
  ccalls_per_req : float;
  reset_us : float;
  gen_ms : float;
  req_us_p50_compart : float;
  req_us_p50_mono : float;
  requests : int; (* per pass; 0 when operations are runs *)
  gc_minor : int; (* collections during one untraced pass *)
  gc_major : int;
  overhead_ms : float; (* traced pass minus untraced pass, end to end *)
}

let zero =
  {
    compile_ms = 0.0;
    assemble_ms = 0.0;
    create_ms = 0.0;
    boot_ms = 0.0;
    ns_per_insn = 0.0;
    words_per_insn = 0.0;
    untimed_ns_per_insn = 0.0;
    plain_ns_per_insn = 0.0;
    observer_ns_per_insn = 0.0;
    counters = Obs.Counters.create ();
    ccalls_per_req = 0.0;
    reset_us = 0.0;
    gen_ms = 0.0;
    req_us_p50_compart = 0.0;
    req_us_p50_mono = 0.0;
    requests = 0;
    gc_minor = 0;
    gc_major = 0;
    overhead_ms = 0.0;
  }

(* Mean self time per call of the spans named [name], in [scale] ns. *)
let per_call totals name ~scale =
  let a = Spans.find totals name in
  if a.Spans.count = 0 then 0.0 else float_of_int a.Spans.self_ns /. float_of_int a.Spans.count /. scale

let metrics l =
  let c i = Int64.to_float (Obs.Counters.get l.counters i) in
  let insns = c Obs.Counters.instret in
  let pki i = Report.ratio (1000.0 *. c i) insns in
  Report.
    [
      metric "minic.compile_ms" "ms" l.compile_ms;
      metric "asm.assemble_ms" "ms" l.assemble_ms;
      metric "machine.create_ms" "ms" l.create_ms;
      metric "serve.boot_ms" "ms" l.boot_ms;
      metric "machine.ns_per_insn" "ns" l.ns_per_insn;
      metric "machine.words_per_insn" "words/insn" l.words_per_insn;
      metric "machine.untimed_ns_per_insn" "ns" l.untimed_ns_per_insn;
      metric "mem.model_ns_per_insn" "ns"
        (if l.untimed_ns_per_insn = 0.0 then 0.0 else l.ns_per_insn -. l.untimed_ns_per_insn);
      metric "machine.plain_ns_per_insn" "ns" l.plain_ns_per_insn;
      metric "machine.sb_coverage" "ratio" (ratio (c Obs.Counters.sb_retired) insns);
      metric "machine.sb_translations" "count" (c Obs.Counters.sb_translations);
      metric "mem.l1i_miss_pki" "1/kinsn" (pki Obs.Counters.l1i_misses);
      metric "mem.l1d_miss_pki" "1/kinsn" (pki Obs.Counters.l1d_misses);
      metric "mem.l2_miss_pki" "1/kinsn" (pki Obs.Counters.l2_misses);
      metric "mem.tlb_miss_pki" "1/kinsn" (pki Obs.Counters.tlb_misses);
      metric "mem.tag_miss_pki" "1/kinsn" (pki Obs.Counters.tag_misses);
      metric "mem.dram_bytes" "B" (c Obs.Counters.dram_read_bytes +. c Obs.Counters.dram_write_bytes);
      metric "core.cap_ops_pki" "1/kinsn" (pki Obs.Counters.cap_ops);
      metric "core.cap_loads_pki" "1/kinsn" (pki Obs.Counters.cap_loads);
      metric "core.cap_stores_pki" "1/kinsn" (pki Obs.Counters.cap_stores);
      metric "kernel.ccalls_per_req" "count" l.ccalls_per_req;
      metric "kernel.syscalls" "count" (c Obs.Counters.syscalls);
      metric "serve.reset_us" "us" l.reset_us;
      metric "serve.gen_ms" "ms" l.gen_ms;
      metric "serve.insns_per_req" "insn"
        (if l.requests = 0 then 0.0 else insns /. float_of_int l.requests);
      metric "serve.req_us_p50.compart" "us" l.req_us_p50_compart;
      metric "serve.req_us_p50.mono" "us" l.req_us_p50_mono;
      metric "obs.observer_ns_per_insn" "ns" l.observer_ns_per_insn;
      metric "gc.minor_collections" "count" (float_of_int l.gc_minor);
      metric "gc.major_collections" "count" (float_of_int l.gc_major);
      metric "trace.overhead_ms" "ms" l.overhead_ms;
    ]
