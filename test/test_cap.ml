(* Tests for the capability model core (lib/core): U64 arithmetic, the
   permissions lattice, capability manipulation monotonicity, access checks,
   sealing, and the 256/128-bit memory images. *)

open Cap

let u64 = Alcotest.testable (fun ppf v -> U64.pp ppf v) U64.equal
let cap = Alcotest.testable Capability.pp Capability.equal
let cause = Alcotest.testable Cause.pp Cause.equal

let check_ok what = function
  | Ok v -> v
  | Error c -> Alcotest.failf "%s: unexpected capability exception: %s" what (Cause.to_string c)

let check_err what expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s, got Ok" what (Cause.to_string expected)
  | Error c -> Alcotest.check cause what expected c

(* --- U64 -------------------------------------------------------------- *)

let test_u64_compare () =
  Alcotest.(check bool) "unsigned: -1 > 1" true (U64.gt (-1L) 1L);
  Alcotest.(check bool) "0 < max" true (U64.lt 0L U64.max_value);
  Alcotest.(check bool) "max >= max" true (U64.ge U64.max_value U64.max_value);
  Alcotest.(check u64) "min" 1L (U64.min 1L (-1L));
  Alcotest.(check u64) "max" (-1L) (U64.max 1L (-1L))

let test_u64_in_range () =
  let ok = U64.in_range in
  Alcotest.(check bool) "basic inside" true (ok ~addr:10L ~size:4L ~base:8L ~length:16L);
  Alcotest.(check bool) "exact fit" true (ok ~addr:8L ~size:16L ~base:8L ~length:16L);
  Alcotest.(check bool) "one past end" false (ok ~addr:9L ~size:16L ~base:8L ~length:16L);
  Alcotest.(check bool) "below base" false (ok ~addr:7L ~size:1L ~base:8L ~length:16L);
  Alcotest.(check bool) "zero length seg" false (ok ~addr:8L ~size:1L ~base:8L ~length:0L);
  (* Wrap-around: the almighty segment admits the very last byte. *)
  Alcotest.(check bool) "last byte of address space" true
    (ok ~addr:(Int64.sub U64.max_value 1L) ~size:1L ~base:0L ~length:U64.max_value);
  (* High segment near 2^64. *)
  Alcotest.(check bool) "high segment inside" true
    (ok ~addr:0xFFFF_FFFF_FFFF_FFF0L ~size:8L ~base:0xFFFF_FFFF_FFFF_FFF0L ~length:15L);
  Alcotest.(check bool) "high segment overflow" false
    (ok ~addr:0xFFFF_FFFF_FFFF_FFF8L ~size:8L ~base:0xFFFF_FFFF_FFFF_FFF0L ~length:15L)

let test_u64_align () =
  Alcotest.(check u64) "align_down" 32L (U64.align_down 37L 32L);
  Alcotest.(check u64) "align_up" 64L (U64.align_up 37L 32L);
  Alcotest.(check u64) "align_up exact" 64L (U64.align_up 64L 32L);
  Alcotest.(check u64) "pow2 of 1" 1L (U64.round_up_pow2 1L);
  Alcotest.(check u64) "pow2 of 3" 4L (U64.round_up_pow2 3L);
  Alcotest.(check u64) "pow2 of 4" 4L (U64.round_up_pow2 4L);
  Alcotest.(check u64) "pow2 of 1025" 2048L (U64.round_up_pow2 1025L)

let test_u64_divrem () =
  Alcotest.(check u64) "unsigned div" 1L (U64.div (-1L) 0x8000_0000_0000_0000L);
  Alcotest.(check u64) "unsigned rem" 0x7FFF_FFFF_FFFF_FFFFL
    (U64.rem (-1L) 0x8000_0000_0000_0000L)

(* --- Perms ------------------------------------------------------------ *)

let test_perms_lattice () =
  let p = Perms.union Perms.load Perms.store in
  Alcotest.(check bool) "has load" true (Perms.has p Perms.load);
  Alcotest.(check bool) "no exec" false (Perms.has p Perms.execute);
  Alcotest.(check bool) "subset of all" true (Perms.subset p Perms.all);
  Alcotest.(check bool) "all not subset" false (Perms.subset Perms.all p);
  Alcotest.(check bool) "inter" true
    (Perms.equal (Perms.inter p Perms.load) Perms.load);
  Alcotest.(check bool) "diff removes" false
    (Perms.has (Perms.diff p Perms.load) Perms.load)

let test_perms_user () =
  let p = Perms.user 0 and q = Perms.user 15 in
  Alcotest.(check bool) "user distinct" false (Perms.equal p q);
  Alcotest.(check bool) "user within mask" true (Perms.subset (Perms.union p q) Perms.all);
  Alcotest.check_raises "user 16 rejected" (Invalid_argument "Perms.user")
    (fun () -> ignore (Perms.user 16))

(* --- Capability manipulation ------------------------------------------ *)

let heap_cap =
  Capability.make
    ~perms:(Perms.union Perms.load (Perms.union Perms.store Perms.load_cap))
    ~base:0x1000L ~length:0x100L

let test_inc_base () =
  let c = check_ok "inc_base" (Capability.inc_base heap_cap 0x10L) in
  Alcotest.check u64 "base moved" 0x1010L (Capability.base c);
  Alcotest.check u64 "length shrunk" 0xF0L (Capability.length c);
  Alcotest.(check bool) "still tagged" true (Capability.tag c);
  check_err "inc_base past end" Cause.Length_violation
    (Capability.inc_base heap_cap 0x101L);
  let whole = check_ok "inc_base whole" (Capability.inc_base heap_cap 0x100L) in
  Alcotest.check u64 "zero length left" 0L (Capability.length whole)

let test_set_len () =
  let c = check_ok "set_len" (Capability.set_len heap_cap 0x80L) in
  Alcotest.check u64 "length reduced" 0x80L (Capability.length c);
  check_err "set_len grow" Cause.Length_violation (Capability.set_len heap_cap 0x101L);
  let same = check_ok "set_len same" (Capability.set_len heap_cap 0x100L) in
  Alcotest.check cap "unchanged" heap_cap same

let test_and_perm () =
  let c = check_ok "and_perm" (Capability.and_perm heap_cap Perms.load) in
  Alcotest.(check bool) "kept load" true (Perms.has (Capability.perms c) Perms.load);
  Alcotest.(check bool) "dropped store" false (Perms.has (Capability.perms c) Perms.store);
  (* const-qualified pointer: disclaim write permission (Section 5.1). *)
  let const = check_ok "const" (Capability.and_perm heap_cap (Perms.diff Perms.all Perms.store)) in
  check_err "store via const" Cause.Permit_store_violation
    (Capability.check_access const Capability.Store ~addr:0x1000L ~size:8L)

let test_clear_tag () =
  let c = Capability.clear_tag heap_cap in
  Alcotest.(check bool) "untagged" false (Capability.tag c);
  check_err "ops on untagged" Cause.Tag_violation (Capability.inc_base c 0L);
  check_err "access via untagged" Cause.Tag_violation
    (Capability.check_access c Capability.Load ~addr:0x1000L ~size:1L)

let test_ptr_conversions () =
  let c0 = Capability.make ~perms:Perms.all ~base:0x4000L ~length:0x1000L in
  let c = check_ok "derive" (Capability.inc_base c0 0x40L) in
  Alcotest.check u64 "to_ptr" 0x40L (Capability.to_ptr c ~relative_to:c0);
  Alcotest.check u64 "to_ptr untagged = NULL" 0L
    (Capability.to_ptr (Capability.clear_tag c) ~relative_to:c0);
  let back = check_ok "from_ptr" (Capability.from_ptr c0 0x40L) in
  Alcotest.check u64 "round trip base" (Capability.base c) (Capability.base back);
  let nullc = check_ok "from_ptr 0" (Capability.from_ptr c0 0L) in
  Alcotest.check cap "NULL cast" Capability.null nullc

let test_access_checks () =
  let ok = check_ok "load in bounds"
      (Capability.check_access heap_cap Capability.Load ~addr:0x10FFL ~size:1L) in
  ignore ok;
  check_err "load out of bounds" Cause.Length_violation
    (Capability.check_access heap_cap Capability.Load ~addr:0x10FFL ~size:2L);
  check_err "load below base" Cause.Length_violation
    (Capability.check_access heap_cap Capability.Load ~addr:0xFFFL ~size:1L);
  check_err "execute not permitted" Cause.Permit_execute_violation
    (Capability.check_access heap_cap Capability.Execute ~addr:0x1000L ~size:4L);
  check_err "store-cap not permitted" Cause.Permit_store_capability_violation
    (Capability.check_access heap_cap Capability.Store_cap ~addr:0x1000L ~size:32L);
  let r = Capability.check_access Capability.almighty Capability.Execute
      ~addr:0xFFFF_FFFF_0000_0000L ~size:4L in
  ignore (check_ok "almighty executes anywhere" r)

let test_sealing () =
  let authority =
    Capability.make ~perms:(Perms.union Perms.seal Perms.load) ~base:0x20L ~length:0x10L
  in
  let sealed = check_ok "seal" (Capability.seal heap_cap ~authority ~otype:0x25) in
  Alcotest.(check bool) "sealed" true (Capability.is_sealed sealed);
  Alcotest.(check int) "otype" 0x25 (Capability.otype sealed);
  check_err "deref sealed" Cause.Seal_violation
    (Capability.check_access sealed Capability.Load ~addr:0x1000L ~size:1L);
  check_err "mutate sealed" Cause.Seal_violation (Capability.inc_base sealed 0L);
  check_err "reseal" Cause.Seal_violation (Capability.seal sealed ~authority ~otype:0x25);
  check_err "seal otype out of authority" Cause.Length_violation
    (Capability.seal heap_cap ~authority ~otype:0x31);
  check_err "seal without permission" Cause.Permit_seal_violation
    (Capability.seal heap_cap ~authority:heap_cap ~otype:0x25);
  let unsealed = check_ok "unseal" (Capability.unseal sealed ~authority ~otype:0x25) in
  Alcotest.check cap "unseal round trip" heap_cap unsealed;
  check_err "unseal wrong otype" Cause.Type_violation
    (Capability.unseal sealed ~authority ~otype:0x26)

let test_rights_subset () =
  let sub = check_ok "sub" (Capability.inc_base heap_cap 0x10L) in
  Alcotest.(check bool) "derived subset" true (Capability.rights_subset sub heap_cap);
  Alcotest.(check bool) "parent not subset" false (Capability.rights_subset heap_cap sub);
  Alcotest.(check bool) "untagged subset of anything" true
    (Capability.rights_subset (Capability.clear_tag Capability.almighty) Capability.null);
  Alcotest.(check bool) "everything subset of almighty" true
    (Capability.rights_subset heap_cap Capability.almighty)

let test_bytes_roundtrip () =
  let sealed =
    check_ok "seal"
      (Capability.seal heap_cap
         ~authority:(Capability.make ~perms:Perms.all ~base:0L ~length:0x1000L)
         ~otype:0x123)
  in
  List.iter
    (fun c ->
      let b = Capability.to_bytes c in
      Alcotest.(check int) "32 bytes" 32 (Bytes.length b);
      let c' = Capability.of_bytes ~tag:(Capability.tag c) b in
      Alcotest.check cap "roundtrip" c c')
    [ heap_cap; Capability.almighty; Capability.null; sealed ];
  (* A load of the same bytes without the tag yields data, not a capability. *)
  let b = Capability.to_bytes heap_cap in
  let c' = Capability.of_bytes ~tag:false b in
  Alcotest.(check bool) "untagged load" false (Capability.tag c')

(* --- Cap128 ------------------------------------------------------------ *)

let small_cap = Capability.make ~perms:(Perms.union Perms.load Perms.store)
    ~base:0xAB_CDEF_0123L ~length:0x10_0000L

let test_cap128_roundtrip () =
  List.iter
    (fun c ->
      Alcotest.(check bool) "representable" true (Cap128.representable c);
      let t = check_ok "compress" (Cap128.compress c) in
      let c' = Cap128.decompress ~tag:(Capability.tag c) t in
      Alcotest.check cap "roundtrip" c c')
    [ small_cap; Capability.null; Capability.make ~perms:Perms.none ~base:0L ~length:0L ]

let test_cap128_whole_space () =
  (* The reset capability must survive compression. *)
  let c = Capability.make ~perms:(Perms.of_int 0xFFFF) ~base:0L ~length:U64.max_value in
  Alcotest.(check bool) "almighty-length representable" true (Cap128.representable c);
  let t = check_ok "compress" (Cap128.compress c) in
  Alcotest.check cap "roundtrip" c (Cap128.decompress ~tag:true t)

let test_cap128_rejects () =
  let big = Capability.make ~perms:Perms.load ~base:(Int64.shift_left 1L 41) ~length:8L in
  Alcotest.(check bool) "unrepresentable base" false (Cap128.representable big);
  check_err "compress refuses" Cause.Non_exact_bounds (Cap128.compress big);
  let long = Capability.make ~perms:Perms.load ~base:0L ~length:(Int64.shift_left 1L 40) in
  check_err "compress refuses long" Cause.Non_exact_bounds (Cap128.compress long)

let test_cap128_bytes () =
  let t = check_ok "compress" (Cap128.compress small_cap) in
  let b = Cap128.to_bytes t in
  Alcotest.(check int) "16 bytes" 16 (Bytes.length b);
  Alcotest.(check bool) "roundtrip" true (Cap128.equal t (Cap128.of_bytes b))

(* --- Properties --------------------------------------------------------- *)

let gen_perms = QCheck.Gen.map Perms.of_int (QCheck.Gen.int_bound 0x3FFFFFFF)

let gen_cap =
  QCheck.Gen.(
    map3
      (fun p (b, l) tag ->
        let c = Capability.make ~perms:p ~base:b ~length:l in
        if tag then c else Capability.clear_tag c)
      gen_perms
      (pair (map Int64.of_int (int_bound 0xFFFFFF)) (map Int64.of_int (int_bound 0xFFFFFF)))
      bool)

let arb_cap = QCheck.make ~print:(Fmt.to_to_string Capability.pp) gen_cap

let prop_monotonic name f =
  QCheck.Test.make ~count:500 ~name
    (QCheck.pair arb_cap (QCheck.map Int64.of_int QCheck.small_nat))
    (fun (c, v) ->
      match f c v with
      | Error _ -> true
      | Ok c' -> Capability.rights_subset c' c)

let prop_inc_base = prop_monotonic "inc_base monotonic" Capability.inc_base
let prop_set_len = prop_monotonic "set_len monotonic" Capability.set_len

let prop_and_perm =
  QCheck.Test.make ~count:500 ~name:"and_perm monotonic"
    (QCheck.pair arb_cap (QCheck.map Perms.of_int (QCheck.int_bound 0x3FFFFFFF)))
    (fun (c, m) ->
      match Capability.and_perm c m with
      | Error _ -> true
      | Ok c' -> Capability.rights_subset c' c)

let prop_access_within_derived =
  (* Any access permitted through a derived capability is permitted through
     its parent: no manipulation sequence can widen authority. *)
  QCheck.Test.make ~count:500 ~name:"derived access implies parent access"
    (QCheck.quad arb_cap QCheck.small_nat QCheck.small_nat QCheck.small_nat)
    (fun (c, d, off, sz) ->
      let d = Int64.of_int d and off = Int64.of_int off in
      let sz = Int64.of_int (max 1 sz) in
      match Capability.inc_base c d with
      | Error _ -> true
      | Ok c' ->
          let addr = Int64.add (Capability.base c') off in
          (match Capability.check_access c' Capability.Load ~addr ~size:sz with
          | Error _ -> true
          | Ok () ->
              Result.is_ok (Capability.check_access c Capability.Load ~addr ~size:sz)))

let prop_bytes_roundtrip =
  QCheck.Test.make ~count:500 ~name:"256-bit image roundtrip" arb_cap (fun c ->
      Capability.equal c (Capability.of_bytes ~tag:(Capability.tag c) (Capability.to_bytes c)))

(* A CLC hands the destination's current value to [of_words_reusing]:
   the result must be what [of_words] builds, and physically the old
   value exactly when that is equal to it.  [prev] is an equal copy or
   differs in the tag, one bit of the flags word (sealed, perms, otype
   or the high byte) or one whole word. *)
let prop_of_words_reusing =
  QCheck.Test.make ~count:1000 ~name:"of_words_reusing agrees with of_words"
    QCheck.(pair (quad bool int64 int64 (pair int64 int64)) (pair (int_bound 5) int64))
    (fun ((tag, flags, reserved, (base, length)), (which, x)) ->
      let fresh = Capability.of_words ~tag ~flags ~reserved ~base ~length in
      let prev =
        match which with
        | 0 -> Capability.of_words ~tag ~flags ~reserved ~base ~length
        | 1 -> Capability.of_words ~tag:(not tag) ~flags ~reserved ~base ~length
        | 2 ->
            let flags = Int64.logxor flags (Int64.shift_left 1L (Int64.to_int x land 63)) in
            Capability.of_words ~tag ~flags ~reserved ~base ~length
        | 3 -> Capability.of_words ~tag ~flags ~reserved:(Int64.logxor reserved x) ~base ~length
        | 4 -> Capability.of_words ~tag ~flags ~reserved ~base:(Int64.logxor base x) ~length
        | _ -> Capability.of_words ~tag ~flags ~reserved ~base ~length:(Int64.logxor length x)
      in
      let got = Capability.of_words_reusing ~prev ~tag ~flags ~reserved ~base ~length in
      Capability.equal got fresh && got == prev = Capability.equal prev fresh)

let prop_cap128_roundtrip =
  QCheck.Test.make ~count:500 ~name:"128-bit compress/decompress exact" arb_cap
    (fun c ->
      (* Untagged capabilities are opaque data: the 128-bit store preserves
         bits, not field interpretation, so only tagged ones must roundtrip. *)
      if not (Capability.tag c) then QCheck.assume_fail ()
      else
      let c =
        (* Restrict perms to the compressible set; bases/lengths from gen_cap
           already fit in 40 bits. *)
        match Capability.and_perm c (Perms.of_int 0xFFFF) with
        | Ok c -> c
        | Error _ -> QCheck.assume_fail ()
      in
      if not (Cap128.representable c) then QCheck.assume_fail ()
      else
        match Cap128.compress c with
        | Error _ -> false
        | Ok t -> Capability.equal c (Cap128.decompress ~tag:(Capability.tag c) t))

let prop_in_range_sound =
  QCheck.Test.make ~count:1000 ~name:"in_range agrees with integer model"
    QCheck.(quad small_nat small_nat small_nat small_nat)
    (fun (addr, size, base, length) ->
      let i64 = Int64.of_int in
      let expected = addr >= base && size <= length && addr - base <= length - size in
      U64.in_range ~addr:(i64 addr) ~size:(i64 size) ~base:(i64 base) ~length:(i64 length)
      = expected)

(* The machine's native-int access check must agree with the full-width
   one on every address and size a native int holds: negative ints are
   the addresses at the top of the 64-bit space, so bases and addresses
   are drawn from the whole int range as well as near each other. *)
let prop_access_int_agrees =
  let gen =
    QCheck.Gen.(
      let* c =
        oneof
          [
            gen_cap;
            map3
              (fun p b l -> Capability.make ~perms:p ~base:(Int64.of_int b) ~length:(Int64.of_int l))
              gen_perms int int;
          ]
      in
      let* addr =
        oneof [ int; map (fun d -> Int64.to_int (Capability.base c) + d) (int_range (-64) 0x1000000) ]
      in
      let* size = int_range 1 32 in
      let* access =
        oneofl Capability.[ Load; Store; Execute; Load_cap; Store_cap ]
      in
      return (c, addr, size, access))
  in
  QCheck.Test.make ~count:2000 ~name:"native-int access check agrees with the 64-bit one"
    (QCheck.make gen) (fun (c, addr, size, access) ->
      Capability.check_access_int c access ~addr ~size
      = Capability.check_access c access ~addr:(Int64.of_int addr) ~size:(Int64.of_int size))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let suites =
  [
    ( "u64",
      [
        Alcotest.test_case "unsigned compare" `Quick test_u64_compare;
        Alcotest.test_case "in_range" `Quick test_u64_in_range;
        Alcotest.test_case "alignment" `Quick test_u64_align;
        Alcotest.test_case "unsigned div/rem" `Quick test_u64_divrem;
      ] );
    ( "perms",
      [
        Alcotest.test_case "lattice ops" `Quick test_perms_lattice;
        Alcotest.test_case "user permissions" `Quick test_perms_user;
      ] );
    ( "capability",
      [
        Alcotest.test_case "CIncBase" `Quick test_inc_base;
        Alcotest.test_case "CSetLen" `Quick test_set_len;
        Alcotest.test_case "CAndPerm" `Quick test_and_perm;
        Alcotest.test_case "CClearTag" `Quick test_clear_tag;
        Alcotest.test_case "CToPtr/CFromPtr" `Quick test_ptr_conversions;
        Alcotest.test_case "access checks" `Quick test_access_checks;
        Alcotest.test_case "sealing" `Quick test_sealing;
        Alcotest.test_case "rights_subset" `Quick test_rights_subset;
        Alcotest.test_case "memory image" `Quick test_bytes_roundtrip;
      ] );
    ( "cap128",
      [
        Alcotest.test_case "roundtrip" `Quick test_cap128_roundtrip;
        Alcotest.test_case "whole address space" `Quick test_cap128_whole_space;
        Alcotest.test_case "rejects unrepresentable" `Quick test_cap128_rejects;
        Alcotest.test_case "memory image" `Quick test_cap128_bytes;
      ] );
    qsuite "cap-properties"
      [
        prop_inc_base;
        prop_set_len;
        prop_and_perm;
        prop_access_within_derived;
        prop_bytes_roundtrip;
        prop_cap128_roundtrip;
        prop_in_range_sound;
        prop_access_int_agrees;
        prop_of_words_reusing;
      ];
  ]
