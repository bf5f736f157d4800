(* Exact allocation gates for the simulator's per-instruction path.

   [Gc.minor_words] counts the words this domain allocates, and the
   machine is deterministic, so these figures repeat exactly: a gate of
   zero is a gate of zero, not a tolerance band.  They pin down the
   unboxed datapath — register file and PC in raw 64-bit slots, native-int
   memory keys, loop-based cache way search — so a change that boxes an
   [int64] or builds a closure per instruction fails here rather than as
   a drift in the benchmark's words-per-instruction figure.  Two more
   gates bound what a machine and a checkpoint cost on both heaps; a
   flat zero-filled 64 MiB memory image alone would be 8 Mi words. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let n = 10_000

(* Words allocated on both heaps, for operations whose large blocks go
   straight to the major heap: [Gc.minor_words] plus the major heap's
   words, read together with [Gc.counters].  The major figure also holds
   the words a minor collection promotes, which the minor figure already
   counted, so those are taken off once.  Starting from an empty minor
   heap makes the figure exact: without it, the minor count read across
   a collection varies with how full the heap was beforehand. *)
let heap_words f =
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* A warm loop mixing the instruction classes a retired instruction
   exercises: ALU, legacy and capability-relative loads and stores of
   every width, a call and a return, and a taken branch. *)
let hot_loop =
  {|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  li $t1, 0
loop:
  ld $t2, 0($t0)
  daddu $t1, $t1, $t2
  sd $t1, 8($t0)
  sw $t1, 16($t0)
  lbu $t3, 16($t0)
  lh $t3, 18($t0)
  csd $t1, $zero, 24($c1)
  cld $t2, $zero, 24($c1)
  jal leaf
  daddiu $t1, $t1, 1
  b loop
leaf:
  xor $t3, $t3, $t1
  jr $ra
.data
.align 5
buf: .space 64
|}

let warm_machine () =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  Os.Kernel.exec k (Asm.Assembler.assemble hot_loop);
  for _ = 1 to 1000 do
    Machine.step m
  done;
  m

let test_step_decode_hit () =
  let m = warm_machine () in
  let instret = m.Machine.instret and entries = m.Machine.kernel_entries in
  let words =
    minor_words (fun () ->
        for _ = 1 to n do
          Machine.step m
        done)
  in
  Alcotest.(check int) "every step retired" (instret + n) m.Machine.instret;
  Alcotest.(check int) "no trap taken" entries m.Machine.kernel_entries;
  Alcotest.(check (float 0.)) "decode-hit steps allocate nothing" 0. words

let test_sb_step () =
  let m = warm_machine () in
  Machine.set_engine m Machine.Superblock;
  for _ = 1 to 100 do
    Machine.sb_step m ~fuel:64
  done;
  let instret = m.Machine.instret in
  let words =
    minor_words (fun () ->
        for _ = 1 to n do
          Machine.sb_step m ~fuel:64
        done)
  in
  Alcotest.(check bool) "blocks retired instructions" true (m.Machine.instret - instret > n);
  Alcotest.(check (float 0.)) "superblock dispatches allocate nothing" 0. words

let test_tlb_fast_hit () =
  let tlb = Mem.Tlb.create ~entries:256 () in
  Mem.Tlb.map tlb ~vaddr:0L ~len:(1 lsl 20) Mem.Tlb.prot_rwx;
  ignore (Mem.Tlb.touch tlb 0x1000);
  ignore (Mem.Tlb.protection tlb 0x1000);
  let hits = tlb.Mem.Tlb.hits in
  let words =
    minor_words (fun () ->
        for _ = 1 to n do
          ignore (Mem.Tlb.touch tlb 0x1040);
          ignore (Mem.Tlb.protection tlb 0x1040)
        done)
  in
  Alcotest.(check int) "every touch hit" (hits + n) tlb.Mem.Tlb.hits;
  Alcotest.(check (float 0.)) "TLB fast hits allocate nothing" 0. words

(* Two lines of one set, touched alternately: each access misses the
   one-line MRU front and hits in the way search. *)
let test_cache_way_search () =
  let c = Mem.Cache.create ~name:"gate" ~size_bytes:16384 ~line_bytes:32 ~assoc:4 in
  let a = 0 and b = c.Mem.Cache.sets in
  ignore (Mem.Cache.access_line c ~line:a ~write:false);
  ignore (Mem.Cache.access_line c ~line:b ~write:false);
  let hits = c.Mem.Cache.hits in
  let words =
    minor_words (fun () ->
        for _ = 1 to n do
          ignore (Mem.Cache.access_line c ~line:a ~write:true);
          ignore (Mem.Cache.access_line c ~line:b ~write:false)
        done)
  in
  Alcotest.(check int) "every access hit" (hits + (2 * n)) c.Mem.Cache.hits;
  Alcotest.(check (float 0.)) "way-search hits allocate nothing" 0. words

(* Physical memory is a copy-on-write page table over one shared zero
   page, so a default 64 MiB machine costs its page table, tag map and
   host-side caches, not a 64 MiB image (8 Mi words); a checkpoint copies
   the page table and tag map, not the image. *)
let gate_words what words ~limit =
  if words > float_of_int limit then
    Alcotest.failf "%s allocated %.0f words (gate: <= %d)" what words limit

let test_create_words () =
  let words = heap_words (fun () -> ignore (Sys.opaque_identity (Machine.create ()))) in
  gate_words "Machine.create (64 MiB)" words ~limit:(256 * 1024)

let test_checkpoint_words () =
  let m = warm_machine () in
  let words = heap_words (fun () -> ignore (Sys.opaque_identity (Machine.checkpoint m))) in
  gate_words "Machine.checkpoint (64 MiB)" words ~limit:(128 * 1024)

(* Words per retired instruction of a whole legacy treeadd run, syscalls
   and all, under [engine]. *)
let treeadd_words_per_insn engine =
  let source = Olden.Minic_src.instantiate (List.assoc "treeadd" Olden.Minic_src.all) ~param:10 in
  let program = Asm.Assembler.assemble (Minic.Driver.compile ~mode:Minic.Layout.Legacy source) in
  let m = Exp.Bench_run.machine_for Minic.Layout.Legacy in
  Machine.set_engine m engine;
  let k = Os.Kernel.attach m in
  Os.Kernel.exec k program;
  let code = ref (-1) in
  let words = minor_words (fun () -> code := Machine.run m) in
  Alcotest.(check int) "treeadd exits cleanly" 0 !code;
  words /. float_of_int m.Machine.instret

let test_treeadd_words_per_insn () =
  List.iter
    (fun engine ->
      let per_insn = treeadd_words_per_insn engine in
      if per_insn > 1.0 then
        Alcotest.failf "%s engine: %.3f words per retired instruction (gate: <= 1.0)"
          (Machine.engine_to_string engine) per_insn)
    [ Machine.Plain; Machine.Superblock ]

(* Superblock formation allocates only the blocks it pins: a cold head
   is retried on every dispatch until the decode cache warms, and each
   attempt used to allocate a 64-slot scratch buffer (0.10 words per
   instruction more than the plain engine on treeadd). *)
let test_formation_words () =
  let plain = treeadd_words_per_insn Machine.Plain in
  let sb = treeadd_words_per_insn Machine.Superblock in
  if sb > plain +. 0.01 then
    Alcotest.failf "superblock %.3f vs plain %.3f words per instruction (gate: at most 0.01 more)"
      sb plain

(* Capability loads and stores through the 256-bit image.  A CLC that
   reloads the value its destination already holds allocates nothing
   ([Cap.Capability.of_words_reusing]); one that loads a different value
   builds one record with three boxed [int64] fields (9 + 3 x 3 = 18
   words); a CSC allocates nothing.  While the image codec was a call,
   its flags word was boxed too: 21 words per CLC, 3 per CSC. *)
let cap_loop body =
  {|
main:
  la $t0, buf
  cincbase $c1, $c0, $t0
  li $t1, 8
  cincbase $c3, $c1, $t1
  csc $c1, $zero, 0($c1)
  csc $c3, $zero, 32($c1)
loop:
|}
  ^ body
  ^ {|
  b loop
.data
.align 5
buf: .space 64
|}

(* Words allocated over [iters] iterations of a warm three-instruction
   loop (two body instructions and the branch); the window may start
   inside an iteration. *)
let cap_loop_words body ~iters =
  let m = Machine.create () in
  let k = Os.Kernel.attach m in
  Os.Kernel.exec k (Asm.Assembler.assemble (cap_loop body));
  for _ = 1 to 1000 do
    Machine.step m
  done;
  minor_words (fun () ->
      for _ = 1 to 3 * iters do
        Machine.step m
      done)

let test_cap_load_store_words () =
  let iters = n / 3 in
  let same = cap_loop_words "  csc $c1, $zero, 0($c1)\n  clc $c2, $zero, 0($c1)\n" ~iters in
  Alcotest.(check (float 0.)) "CSC + CLC of an unchanged value allocate nothing" 0. same;
  let alternating = cap_loop_words "  clc $c2, $zero, 0($c1)\n  clc $c2, $zero, 32($c1)\n" ~iters in
  if alternating > 36. *. float_of_int (iters + 1) then
    Alcotest.failf "%.0f words over %d iterations of two value-changing CLCs (gate: <= 18 per CLC)"
      alternating iters

(* The build must inline across modules.  Dune's dev profile compiles
   every library module with -opaque, so a cross-module call returning
   an [int64] boxes it; the workspace's release profile drops -opaque and
   [Beri.Regs.hi] inlines to a raw load the accumulator keeps unboxed.
   This is the cheapest witness of the build the benchmark figures
   assume: it reads 3 words per call (30 000 here) under -opaque. *)
let test_cross_module_inlining () =
  let r = Beri.Regs.create () in
  Beri.Regs.set_hi r 3L;
  let sum_ok = ref false in
  let words =
    minor_words (fun () ->
        (* Local to the closure, so the accumulator itself is unboxed. *)
        let acc = ref 0L in
        for _ = 1 to n do
          acc := Int64.add !acc (Beri.Regs.hi r)
        done;
        sum_ok := Int64.equal !acc (Int64.of_int (3 * n)))
  in
  Alcotest.(check bool) "sum of HI" true !sum_ok;
  if words <> 0. then
    Alcotest.failf
      "summing Beri.Regs.hi allocated %.0f words over %d calls (gate: 0): the build lost \
       cross-module inlining (built with -opaque, e.g. `dune build --profile dev`; the \
       dune-workspace release profile is the one that inlines)"
      words n

let suites =
  [
    ( "alloc-gate",
      [
        Alcotest.test_case "step, decode-cache hit" `Quick test_step_decode_hit;
        Alcotest.test_case "sb_step, superblock dispatch" `Quick test_sb_step;
        Alcotest.test_case "TLB fast hit" `Quick test_tlb_fast_hit;
        Alcotest.test_case "cache way-search hit" `Quick test_cache_way_search;
        Alcotest.test_case "legacy treeadd words/insn" `Quick test_treeadd_words_per_insn;
        Alcotest.test_case "Machine.create words" `Quick test_create_words;
        Alcotest.test_case "Machine.checkpoint words" `Quick test_checkpoint_words;
        Alcotest.test_case "cross-module inlining" `Quick test_cross_module_inlining;
        Alcotest.test_case "superblock formation words" `Quick test_formation_words;
        Alcotest.test_case "CLC/CSC words" `Quick test_cap_load_store_words;
      ] );
  ]
