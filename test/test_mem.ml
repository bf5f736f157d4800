(* Property tests for the memory subsystem models: physical memory
   round-trips, tag-table semantics, cache residency, and TLB reach. *)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let prop_phys_roundtrip =
  QCheck.Test.make ~count:300 ~name:"scalar store/load roundtrip"
    QCheck.(pair (int_bound 0xFFF0) (int_bound 3))
    (fun (addr, width) ->
      let p = Mem.Phys.create ~size_bytes:0x10000 in
      let a = Int64.of_int addr in
      match width with
      | 0 ->
          Mem.Phys.write_u8 p a 0xAB;
          Mem.Phys.read_u8 p a = 0xAB
      | 1 ->
          Mem.Phys.write_u16 p a 0xBEEF;
          Mem.Phys.read_u16 p a = 0xBEEF
      | 2 ->
          Mem.Phys.write_u32 p a 0xDEADBEEF;
          Mem.Phys.read_u32 p a = 0xDEADBEEF
      | _ ->
          Mem.Phys.write_u64 p a 0x0123456789ABCDEFL;
          Int64.equal (Mem.Phys.read_u64 p a) 0x0123456789ABCDEFL)

let prop_phys_bus_error =
  QCheck.Test.make ~count:100 ~name:"out-of-range access raises Bus_error"
    QCheck.(int_range 0xFFF9 0x11000)
    (fun addr ->
      let p = Mem.Phys.create ~size_bytes:0x10000 in
      match Mem.Phys.read_u64 p (Int64.of_int addr) with
      | _ -> addr + 8 <= 0x10000
      | exception Mem.Phys.Bus_error _ -> addr + 8 > 0x10000)

(* Addresses no physical memory reaches: beyond the native-int range
   (whose low 63 bits would alias a real page if truncated), negative as
   a native int, and within a word of [max_int] (where [addr + size]
   would overflow).  Each raises [Bus_error] carrying the full address. *)
let test_phys_wide_bus_error () =
  let p = Mem.Phys.create ~size_bytes:0x10000 in
  List.iter
    (fun addr ->
      match Mem.Phys.read_u64 p addr with
      | _ -> Alcotest.failf "0x%Lx did not raise" addr
      | exception Mem.Phys.Bus_error a -> Alcotest.(check int64) "full address" addr a)
    [
      Int64.min_int;
      0x8000_0000_0000_0008L;
      0x4000_0000_0000_0000L;
      -8L;
      Int64.of_int max_int;
      Int64.of_int (max_int - 3);
    ];
  Alcotest.check_raises "index near max_int" (Mem.Phys.Bus_error (Int64.of_int (max_int - 3)))
    (fun () -> ignore (Mem.Phys.index p (max_int - 3) 8))

let prop_tags_store_clears =
  QCheck.Test.make ~count:300 ~name:"any overlapping data store clears the tag"
    QCheck.(pair (int_bound 1000) (int_range 1 16))
    (fun (line, size) ->
      let t = Mem.Tags.create ~mem_size:0x10000 () in
      let line_addr = line * 32 mod 0xF000 in
      Mem.Tags.set t line_addr true;
      (* a store overlapping any byte of the line clears it *)
      let off = size mod 32 in
      Mem.Tags.clear_range t (line_addr + off) size;
      not (Mem.Tags.get t line_addr))

let prop_tags_neighbours_unaffected =
  QCheck.Test.make ~count:300 ~name:"stores do not clear other lines' tags"
    QCheck.(int_bound 500)
    (fun line ->
      let t = Mem.Tags.create ~mem_size:0x10000 () in
      let a = line * 32 in
      let next = a + 32 in
      Mem.Tags.set t a true;
      Mem.Tags.set t next true;
      Mem.Tags.clear_range t a 32;
      (not (Mem.Tags.get t a)) && Mem.Tags.get t next)

let prop_cache_rehit =
  QCheck.Test.make ~count:200 ~name:"immediate re-access always hits"
    QCheck.(pair (int_bound 0xFFFFF) bool)
    (fun (addr, write) ->
      let c = Mem.Cache.create ~name:"p" ~size_bytes:4096 ~line_bytes:32 ~assoc:2 in
      ignore (Mem.Cache.access c ~addr:(Int64.of_int addr) ~write);
      Mem.Cache.access c ~addr:(Int64.of_int addr) ~write:false = Mem.Cache.Hit)

let prop_cache_working_set =
  QCheck.Test.make ~count:100 ~name:"a set's associativity worth of lines co-resides"
    QCheck.(int_bound 0xFFFF)
    (fun base ->
      let assoc = 4 in
      let c = Mem.Cache.create ~name:"p" ~size_bytes:4096 ~line_bytes:32 ~assoc in
      let sets = 4096 / (32 * assoc) in
      (* assoc addresses mapping to the same set *)
      let addrs =
        List.init assoc (fun i -> Int64.of_int ((base * 32) + (i * sets * 32)))
      in
      List.iter (fun a -> ignore (Mem.Cache.access c ~addr:a ~write:false)) addrs;
      List.for_all (fun a -> Mem.Cache.access c ~addr:a ~write:false = Mem.Cache.Hit) addrs)

let prop_tlb_reach =
  QCheck.Test.make ~count:100 ~name:"TLB holds exactly its capacity"
    QCheck.(int_range 2 16)
    (fun entries ->
      let t = Mem.Tlb.create ~entries () in
      Mem.Tlb.map t ~vaddr:0L ~len:(4096 * (entries + 1)) Mem.Tlb.prot_rwx;
      (* touch [entries] distinct pages, then re-touch: all resident *)
      let pages = List.init entries (fun i -> i * 4096) in
      List.iter (fun p -> ignore (Mem.Tlb.touch t p)) pages;
      let all_hit = List.for_all (fun p -> Mem.Tlb.touch t p) pages in
      (* one more page evicts exactly the least recently used (page 0);
         probing mutates recency, so check MRU first, then the victim *)
      ignore (Mem.Tlb.touch t (entries * 4096));
      let mru_resident = Mem.Tlb.touch t ((entries - 1) * 4096) in
      let lru_evicted = not (Mem.Tlb.touch t 0) in
      all_hit && mru_resident && lru_evicted)

(* Snapshot/restore with dirty-page tracking: every page written after
   [snapshot] is tracked, [restore] rewinds the whole memory to the
   snapshot image (touching only those pages), and the dirty map comes
   back empty so a following restore is O(nothing). *)
let prop_phys_snapshot_roundtrip =
  QCheck.Test.make ~count:150 ~name:"snapshot/restore rewinds dirtied pages exactly"
    QCheck.(list_of_size Gen.(int_range 1 8) (int_bound 0xFFF8))
    (fun addrs ->
      let size = 0x10000 in
      let p = Mem.Phys.create ~size_bytes:size in
      for i = 0 to (size / 8) - 1 do
        Mem.Phys.write_u64 p (Int64.of_int (i * 8)) (Int64.of_int ((i * 1103515245) + 12345))
      done;
      let snap = Mem.Phys.snapshot p in
      List.iter (fun a -> Mem.Phys.write_u64 p (Int64.of_int a) 0xDEAD_BEEF_0BAD_F00DL) addrs;
      let dirty = Mem.Phys.dirty_pages p in
      let tracked = List.for_all (fun a -> List.mem (a / Mem.Phys.page_bytes) dirty) addrs in
      let restored = Mem.Phys.restore p snap in
      let intact = ref true in
      for i = 0 to (size / 8) - 1 do
        if
          not
            (Int64.equal
               (Mem.Phys.read_u64 p (Int64.of_int (i * 8)))
               (Int64.of_int ((i * 1103515245) + 12345)))
        then intact := false
      done;
      tracked && restored = List.length dirty && !intact && Mem.Phys.dirty_pages p = [])

(* A snapshot is tied to the dirty map that was cleared when it was
   taken: once a newer snapshot exists, restoring an older one would
   rewind pages the map no longer tracks, so it must be refused. *)
let test_phys_snapshot_stale () =
  let p = Mem.Phys.create ~size_bytes:0x1800 in
  (* non-page-multiple size: the last (partial) page restores clamped *)
  Mem.Phys.write_u64 p 0x1400L 7L;
  let s1 = Mem.Phys.snapshot p in
  Mem.Phys.write_u64 p 0x1400L 9L;
  let _s2 = Mem.Phys.snapshot p in
  (match Mem.Phys.restore p s1 with
  | _ -> Alcotest.fail "stale snapshot accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int64) "newer snapshot's image stands" 9L (Mem.Phys.read_u64 p 0x1400L)

(* The naive reference model for [Phys]: one flat image, a dirty flag
   per page, and snapshots that copy the whole image and restore all of
   it.  One qcheck stream drives the model and a real [Phys] side by
   side; every read, every dirty-page list and every restore count must
   agree, so the page table, its copy-on-write rule and the page-crossing
   accessors are observationally the flat image they replaced. *)
module Flat = struct
  type t = { img : Bytes.t; dirty : bool array; mutable stamp : int }
  type snap = { copy : Bytes.t; at : int }

  let create size =
    {
      img = Bytes.make size '\000';
      dirty = Array.make ((size + Mem.Phys.page_bytes - 1) / Mem.Phys.page_bytes) false;
      stamp = 0;
    }

  let check t a len =
    if a < 0 || a + len > Bytes.length t.img then raise (Mem.Phys.Bus_error (Int64.of_int a))

  let read t a len =
    check t a len;
    Bytes.sub t.img a len

  let write t a b =
    let len = Bytes.length b in
    check t a len;
    Bytes.blit b 0 t.img a len;
    if len > 0 then
      for p = a / Mem.Phys.page_bytes to (a + len - 1) / Mem.Phys.page_bytes do
        t.dirty.(p) <- true
      done

  let dirty_pages t = List.filter (fun p -> t.dirty.(p)) (List.init (Array.length t.dirty) Fun.id)

  let snapshot t =
    t.stamp <- t.stamp + 1;
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    { copy = Bytes.copy t.img; at = t.stamp }

  let restore t s =
    if s.at <> t.stamp then invalid_arg "Flat.restore: stale snapshot";
    let n = List.length (dirty_pages t) in
    Bytes.blit s.copy 0 t.img 0 (Bytes.length t.img);
    Array.fill t.dirty 0 (Array.length t.dirty) false;
    n
end

type phys_op =
  | Write of int * int * int64 (* width, address, value *)
  | Read of int * int
  | Write_bytes of int * int * int (* address, length, fill seed *)
  | Read_bytes of int * int
  | Snapshot
  | Restore of int (* 0 = newest snapshot; older ones are stale *)

let show_op = function
  | Write (w, a, v) -> Printf.sprintf "write%d 0x%x 0x%Lx" (8 * w) a v
  | Read (w, a) -> Printf.sprintf "read%d 0x%x" (8 * w) a
  | Write_bytes (a, n, s) -> Printf.sprintf "write_bytes 0x%x len %d seed %d" a n s
  | Read_bytes (a, n) -> Printf.sprintf "read_bytes 0x%x len %d" a n
  | Snapshot -> "snapshot"
  | Restore k -> Printf.sprintf "restore %d" k

(* Five and a half pages: the last page is partial. *)
let model_size = 0x5800

let gen_phys_op =
  let open QCheck.Gen in
  (* Addresses cluster at page boundaries, so scalars and byte runs
     straddle pages; a few fall outside memory. *)
  let addr =
    frequency
      [
        (3, map2 (fun p d -> (p * Mem.Phys.page_bytes) + d) (int_range 1 5) (int_range (-9) 8));
        (2, int_range (-4) (model_size + 4));
      ]
  in
  let width = oneofl [ 1; 2; 4; 8 ] in
  frequency
    [
      (6, map3 (fun w a v -> Write (w, a, v)) width addr ui64);
      (4, map2 (fun w a -> Read (w, a)) width addr);
      (2, map3 (fun a n s -> Write_bytes (a, n, s)) addr (int_range 0 9000) nat);
      (2, map2 (fun a n -> Read_bytes (a, n)) addr (int_range 0 9000));
      (1, return Snapshot);
      (1, map (fun k -> Restore k) (frequency [ (3, return 0); (1, int_range 1 3) ]));
    ]

let fill_bytes n seed = Bytes.init n (fun i -> Char.chr (((i * 31) + seed) land 0xFF))

(* Little-endian bytes of [v]'s low [w] bytes, and back. *)
let le_bytes w v =
  Bytes.init w (fun k -> Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xFF))

let le_value b =
  let v = ref 0L in
  for k = Bytes.length b - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code (Bytes.get b k)))
  done;
  !v

(* Run one op on each side; the observable outcome as a string. *)
let step_phys p (snaps : Mem.Phys.snapshot list) op =
  let a64 a = Int64.of_int a in
  match op with
  | Write (1, a, v) ->
      Mem.Phys.write_u8 p (a64 a) (Int64.to_int v);
      "ok"
  | Write (2, a, v) ->
      Mem.Phys.write_u16 p (a64 a) (Int64.to_int v);
      "ok"
  | Write (4, a, v) ->
      Mem.Phys.write_u32 p (a64 a) (Int64.to_int v);
      "ok"
  | Write (_, a, v) ->
      Mem.Phys.write_u64 p (a64 a) v;
      "ok"
  | Read (1, a) -> Printf.sprintf "%x" (Mem.Phys.read_u8 p (a64 a))
  | Read (2, a) -> Printf.sprintf "%x" (Mem.Phys.read_u16 p (a64 a))
  | Read (4, a) -> Printf.sprintf "%x" (Mem.Phys.read_u32 p (a64 a))
  | Read (_, a) -> Printf.sprintf "%Lx" (Mem.Phys.read_u64 p (a64 a))
  | Write_bytes (a, n, s) ->
      Mem.Phys.write_bytes p (a64 a) (fill_bytes n s);
      "ok"
  | Read_bytes (a, n) -> Digest.to_hex (Digest.bytes (Mem.Phys.read_bytes p (a64 a) n))
  | Snapshot -> "snapshot"
  | Restore k -> (
      match List.nth_opt snaps k with
      | None -> "none"
      | Some s -> string_of_int (Mem.Phys.restore p s))

let step_flat f (snaps : Flat.snap list) op =
  match op with
  | Write (w, a, v) ->
      Flat.write f a (le_bytes w v);
      "ok"
  | Read (8, a) -> Printf.sprintf "%Lx" (le_value (Flat.read f a 8))
  | Read (w, a) -> Printf.sprintf "%x" (Int64.to_int (le_value (Flat.read f a w)))
  | Write_bytes (a, n, s) ->
      Flat.write f a (fill_bytes n s);
      "ok"
  | Read_bytes (a, n) -> Digest.to_hex (Digest.bytes (Flat.read f a n))
  | Snapshot -> "snapshot"
  | Restore k -> (
      match List.nth_opt snaps k with
      | None -> "none"
      | Some s -> string_of_int (Flat.restore f s))

let outcome f =
  match f () with
  | r -> r
  | exception Mem.Phys.Bus_error a -> Printf.sprintf "bus %Lx" a
  | exception Invalid_argument _ -> "stale"

let prop_phys_reference_model =
  QCheck.Test.make ~count:200 ~name:"paged Phys matches the flat reference model"
    QCheck.(
      make
        ~print:(fun ops -> String.concat "; " (List.map show_op ops))
        Gen.(list_size (int_range 1 60) gen_phys_op))
    (fun ops ->
      let p = Mem.Phys.create ~size_bytes:model_size and f = Flat.create model_size in
      let psnaps = ref [] and fsnaps = ref [] in
      let agree op =
        let rp = outcome (fun () -> step_phys p !psnaps op) in
        let rf = outcome (fun () -> step_flat f !fsnaps op) in
        if op = Snapshot then begin
          psnaps := Mem.Phys.snapshot p :: !psnaps;
          fsnaps := Flat.snapshot f :: !fsnaps
        end;
        if rp <> rf then QCheck.Test.fail_reportf "%s: phys %s, model %s" (show_op op) rp rf;
        if Mem.Phys.dirty_pages p <> Flat.dirty_pages f then
          QCheck.Test.fail_reportf "%s: dirty pages differ" (show_op op)
      in
      List.iter agree ops;
      let whole = Mem.Phys.read_bytes p 0L model_size in
      if not (Bytes.equal whole f.Flat.img) then QCheck.Test.fail_report "final images differ";
      (* The shared zero page was never written: a fresh image is zero. *)
      let fresh = Mem.Phys.read_bytes (Mem.Phys.create ~size_bytes:model_size) 0L model_size in
      Bytes.for_all (fun c -> c = '\000') fresh)

(* Tag-table restore is page-granular so Machine.restore can rewind tags
   for exactly the pages whose data it rewinds. *)
let test_tags_restore_page () =
  let t = Mem.Tags.create ~mem_size:0x4000 () in
  Mem.Tags.set t 0x1000 true;
  Mem.Tags.set t 0x2020 true;
  let snap = Mem.Tags.snapshot t in
  Mem.Tags.set t 0x1000 false;
  Mem.Tags.set t 0x2020 false;
  Mem.Tags.set t 0x1040 true;
  Mem.Tags.restore_page t snap ~page_bytes:0x1000 1;
  Alcotest.(check bool) "page 1 tag restored" true (Mem.Tags.get t 0x1000);
  Alcotest.(check bool) "page 1 spurious tag cleared" false (Mem.Tags.get t 0x1040);
  Alcotest.(check bool) "page 2 untouched by page-1 restore" false (Mem.Tags.get t 0x2020);
  Mem.Tags.restore_all t snap;
  Alcotest.(check bool) "restore_all recovers page 2" true (Mem.Tags.get t 0x2020)

(* Cache.create indexes by shift/mask, so it must reject geometries the
   fast path cannot represent — with messages that say which parameter
   is at fault. *)
let test_cache_geometry_validation () =
  let rejects frag f =
    match f () with
    | _ -> Alcotest.failf "geometry accepted (expected rejection: %s)" frag
    | exception Invalid_argument msg ->
        let nl = String.length frag and hl = String.length msg in
        let rec go i = i + nl <= hl && (String.sub msg i nl = frag || go (i + 1)) in
        Alcotest.(check bool) (Printf.sprintf "error %S mentions %s" msg frag) true (go 0)
  in
  (* non-power-of-two line size *)
  rejects "line_bytes 24" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:4608 ~line_bytes:24 ~assoc:2);
  (* pow2 lines but a non-pow2 derived set count: 6144 / (32*2) = 96 sets *)
  rejects "not a power of two" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:6144 ~line_bytes:32 ~assoc:2);
  (* size not divisible by line_bytes*assoc at all *)
  rejects "not a multiple" (fun () ->
      Mem.Cache.create ~name:"bad" ~size_bytes:4100 ~line_bytes:32 ~assoc:2);
  (* and a valid pow2 geometry still constructs *)
  let c = Mem.Cache.create ~name:"ok" ~size_bytes:4096 ~line_bytes:32 ~assoc:2 in
  Alcotest.(check int) "size round-trips" 4096 (Mem.Cache.size_bytes c)

(* Tags.line_index shifts instead of dividing, so the table must agree
   with [addr / line_bytes] at both capability widths' granularities and
   refuse a granularity a shift cannot express. *)
let test_tags_line_index () =
  let mem_size = 0x100000 in
  List.iter
    (fun line_bytes ->
      let t = Mem.Tags.create ~line_bytes ~mem_size () in
      let addrs =
        List.init 4096 Fun.id
        @ List.init 1000 (fun k -> (k * 7919 * 131) mod mem_size)
        @ [ mem_size - 1; mem_size - line_bytes; mem_size / 2 - 1 ]
      in
      List.iter
        (fun addr ->
          let want = addr / line_bytes and got = Mem.Tags.line_index t addr in
          if got <> want then
            Alcotest.failf "line_bytes %d: line_index %#x = %d, addr / line_bytes = %d" line_bytes
              addr got want)
        addrs)
    [ 16; 32 ];
  List.iter
    (fun line_bytes ->
      match Mem.Tags.create ~line_bytes ~mem_size () with
      | _ -> Alcotest.failf "Tags.create accepted line_bytes %d" line_bytes
      | exception Invalid_argument _ -> ())
    [ 24; 48; 0 ]

let test_hierarchy_dram_accounting () =
  let h = Mem.Hierarchy.create () in
  Mem.Tlb.map h.Mem.Hierarchy.tlb ~vaddr:0L ~len:0x100000 Mem.Tlb.prot_rwx;
  (* 1000 distinct lines: all compulsory misses reach DRAM *)
  for i = 0 to 999 do
    ignore (Mem.Hierarchy.access_data h ~addr:(i * 32) ~size:8 ~write:false)
  done;
  Alcotest.(check bool) "DRAM read bytes counted" true (h.Mem.Hierarchy.dram_read_bytes >= 1000 * 32);
  (* re-touch: all resident in L2 (32KB < 64KB), no new DRAM traffic *)
  let before = h.Mem.Hierarchy.dram_read_bytes in
  for i = 0 to 999 do
    ignore (Mem.Hierarchy.access_data h ~addr:(i * 32) ~size:8 ~write:false)
  done;
  Alcotest.(check int) "steady state" before h.Mem.Hierarchy.dram_read_bytes

let test_hierarchy_writeback () =
  let h = Mem.Hierarchy.create () in
  Mem.Tlb.map h.Mem.Hierarchy.tlb ~vaddr:0L ~len:0x4000000 Mem.Tlb.prot_rwx;
  (* dirty many lines, then evict them with a large sweep: writebacks *)
  for i = 0 to 4095 do
    ignore (Mem.Hierarchy.access_data h ~addr:(i * 32) ~size:8 ~write:true)
  done;
  for i = 0 to 16383 do
    ignore
      (Mem.Hierarchy.access_data h ~addr:(0x100000 + (i * 32)) ~size:8 ~write:false)
  done;
  Alcotest.(check bool) "writebacks reached DRAM" true (h.Mem.Hierarchy.dram_write_bytes > 0)

let suites =
  [
    qsuite "mem-properties"
      [
        prop_phys_roundtrip;
        prop_phys_bus_error;
        prop_tags_store_clears;
        prop_tags_neighbours_unaffected;
        prop_cache_rehit;
        prop_cache_working_set;
        prop_tlb_reach;
        prop_phys_snapshot_roundtrip;
        prop_phys_reference_model;
      ];
    ( "mem-phys",
      [ Alcotest.test_case "wide addresses raise Bus_error" `Quick test_phys_wide_bus_error ] );
    ( "mem-snapshot",
      [
        Alcotest.test_case "stale snapshot refused" `Quick test_phys_snapshot_stale;
        Alcotest.test_case "tags restore by page" `Quick test_tags_restore_page;
      ] );
    ("mem-tags", [ Alcotest.test_case "line index is a shift" `Quick test_tags_line_index ]);
    ( "mem-hierarchy",
      [
        Alcotest.test_case "cache geometry validation" `Quick test_cache_geometry_validation;
        Alcotest.test_case "DRAM accounting" `Quick test_hierarchy_dram_accounting;
        Alcotest.test_case "writeback traffic" `Quick test_hierarchy_writeback;
      ] );
  ]
