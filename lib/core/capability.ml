(* The CHERI-256 memory capability (Figure 1 of the paper).

   A capability is an unforgeable reference to a linear range
   [base, base+length) of the virtual address space, carrying a permissions
   vector.  The tag bit distinguishes a valid capability from 256 bits of
   ordinary data occupying a capability register or a capability-sized,
   capability-aligned memory location.

   All manipulation operations are *monotonic*: they can only reduce the
   rights conveyed (shrink bounds, drop permissions, clear the tag).  This is
   the architectural property that makes the reachable-capability closure a
   protection domain (Section 4.2).

   The [otype]/[sealed] fields model the experimentation fields the paper
   reserves (Section 4.1 / Section 11): sealing renders a capability
   immutable and non-dereferenceable until it is unsealed or invoked via a
   protected call, which is how domain crossing is built. *)

type t = {
  tag : bool;
  sealed : bool;
  perms : Perms.t;
  otype : int; (* 24-bit object type; meaningful only when [sealed] *)
  base : U64.t;
  length : U64.t;
  (* Reserved bits of the 256-bit image.  Capability registers may hold
     plain data (Section 4.2: an untagged register is just 256 bits), so
     the in-memory image must round-trip *exactly* — these fields carry the
     bits no architectural field covers. *)
  flags_rest : int; (* bits 56..63 of the flags word *)
  reserved : U64.t; (* bytes 8..15 *)
}

let otype_mask = 0xFF_FFFF

(* The reset / almighty capability: grants every permission over the whole
   64-bit address space.  On CPU reset all capability registers hold this
   value so that an unaware OS runs unconstrained (Section 4.3). *)
let almighty =
  {
    tag = true;
    sealed = false;
    perms = Perms.all;
    otype = 0;
    base = 0L;
    length = U64.max_value;
    flags_rest = 0;
    reserved = 0L;
  }

(* The null capability: the canonical untagged value, used to represent a
   NULL pointer and the contents of a cleared capability register. *)
let null =
  { tag = false; sealed = false; perms = Perms.none; otype = 0; base = 0L; length = 0L;
    flags_rest = 0; reserved = 0L }

let make ~perms ~base ~length =
  { tag = true; sealed = false; perms; otype = 0; base; length; flags_rest = 0; reserved = 0L }

(* Accessors (CGetBase / CGetLen / CGetTag / CGetPerm). *)
let base c = c.base
let length c = c.length
let tag c = c.tag
let perms c = c.perms
let otype c = c.otype
let is_sealed c = c.sealed

(* Exclusive top of the segment; wraps to 0 for the almighty capability,
   which [U64.in_range] handles. *)
let top c = U64.add c.base c.length

let equal a b =
  a.tag = b.tag && a.sealed = b.sealed
  && Perms.equal a.perms b.perms
  && a.otype = b.otype && U64.equal a.base b.base
  && U64.equal a.length b.length
  && a.flags_rest = b.flags_rest
  && U64.equal a.reserved b.reserved

let pp ppf c =
  Fmt.pf ppf "{tag=%b%s base=%a length=%a perms=[%a]%s}" c.tag
    (if c.sealed then " sealed" else "")
    U64.pp c.base U64.pp c.length Perms.pp c.perms
    (if c.sealed then Printf.sprintf " otype=0x%x" c.otype else "")

(* --- Monotonic manipulation ----------------------------------------- *)

let check_unsealed c =
  if not c.tag then Error Cause.Tag_violation
  else if c.sealed then Error Cause.Seal_violation
  else Ok c

(* CIncBase: advance the base by [delta] and shrink the length to match.
   Strictly reduces the extent; the new segment is a subset of the old. *)
let inc_base c delta =
  match check_unsealed c with
  | Error _ as e -> e
  | Ok c ->
      if U64.gt delta c.length then Error Cause.Length_violation
      else
        Ok { c with base = U64.add c.base delta; length = U64.sub c.length delta }

(* CSetLen: reduce the length.  Extending is a length violation. *)
let set_len c len =
  match check_unsealed c with
  | Error _ as e -> e
  | Ok c ->
      if U64.gt len c.length then Error Cause.Length_violation
      else Ok { c with length = len }

(* CAndPerm: intersect the permissions vector with a mask — rights can only
   be disclaimed, never acquired. *)
let and_perm c mask =
  match check_unsealed c with
  | Error _ as e -> e
  | Ok c -> Ok { c with perms = Perms.inter c.perms mask }

(* CClearTag: invalidate.  Always permitted; the result is plain data. *)
let clear_tag c = { c with tag = false }

(* CToPtr: derive a C0-relative integer pointer from a capability.  An
   untagged capability converts to 0 (the NULL pointer), supporting
   pointer/capability round trips for legacy interoperation (Section 4.3). *)
let to_ptr c ~relative_to:c0 =
  if not c.tag then 0L else U64.sub c.base c0.base

(* CFromPtr: the inverse — rederive a capability for [ptr] within [c0].
   A zero pointer produces the canonical null capability rather than a
   capability at c0's base ("CIncBase with support for NULL casts"). *)
let from_ptr c0 ptr =
  if U64.equal ptr 0L then Ok null else inc_base c0 ptr

(* --- Sealing (protected domain crossing support) --------------------- *)

let seal c ~authority ~otype:ot =
  if not c.tag then Error Cause.Tag_violation
  else if c.sealed then Error Cause.Seal_violation
  else if not authority.tag then Error Cause.Tag_violation
  else if authority.sealed then Error Cause.Seal_violation
  else if not (Perms.has authority.perms Perms.seal) then
    Error Cause.Permit_seal_violation
  else if ot < 0 || ot > otype_mask then Error Cause.Type_violation
  else if
    (* The authority's segment must cover the otype, treating otypes as an
       address space of their own. *)
    not (U64.in_range ~addr:(Int64.of_int ot) ~size:1L ~base:authority.base
           ~length:authority.length)
  then Error Cause.Length_violation
  else Ok { c with sealed = true; otype = ot }

let unseal c ~authority ~otype:ot =
  if not c.tag then Error Cause.Tag_violation
  else if not c.sealed then Error Cause.Seal_violation
  else if c.otype <> ot then Error Cause.Type_violation
  else if not (Perms.has authority.perms Perms.seal) then
    Error Cause.Permit_seal_violation
  else if
    not (U64.in_range ~addr:(Int64.of_int ot) ~size:1L ~base:authority.base
           ~length:authority.length)
  then Error Cause.Length_violation
  else Ok { c with sealed = false; otype = 0 }

(* --- Access checks ---------------------------------------------------- *)

type access = Load | Store | Execute | Load_cap | Store_cap

let perm_of_access = function
  | Load -> Perms.load
  | Store -> Perms.store
  | Execute -> Perms.execute
  | Load_cap -> Perms.load_cap
  | Store_cap -> Perms.store_cap

let cause_of_access = function
  | Load -> Cause.Permit_load_violation
  | Store -> Cause.Permit_store_violation
  | Execute -> Cause.Permit_execute_violation
  | Load_cap -> Cause.Permit_load_capability_violation
  | Store_cap -> Cause.Permit_store_capability_violation

(* [check_access c access ~addr ~size] validates a [size]-byte access at
   absolute virtual address [addr] through capability [c]: the tag must be
   set, the capability unsealed, the permission granted, and the access
   in bounds.  Returns the architectural cause on failure.  This single
   function implements the checks applied by every capability-relative
   load, store, and instruction fetch; [in_bounds] is its bounds test,
   computed by each entry point below. *)
let[@inline] check c access ~in_bounds =
  if not c.tag then Error Cause.Tag_violation
  else if c.sealed then Error Cause.Seal_violation
  else if not (Perms.has c.perms (perm_of_access access)) then
    Error (cause_of_access access)
  else if not in_bounds then Error Cause.Length_violation
  else Ok ()

let check_access c access ~addr ~size =
  check c access ~in_bounds:(U64.in_range ~addr ~size ~base:c.base ~length:c.length)

(* The same check for an address and size that fit a native int: the
   machine's per-instruction form.  [Int64.of_int] is exact on such
   values, and the bounds test is [U64.in_range] spelled out with
   primitive operations in this function, so the widened operands stay
   unboxed locals — a cross-module call would box them. *)
let check_access_int c access ~addr ~size =
  let addr = Int64.of_int addr and size = Int64.of_int size in
  let flip = Int64.min_int in
  check c access
    ~in_bounds:
      (Int64.logxor size flip <= Int64.logxor c.length flip
      && Int64.logxor addr flip >= Int64.logxor c.base flip
      && Int64.logxor (Int64.sub addr c.base) flip <= Int64.logxor (Int64.sub c.length size) flip)

(* [rights_subset a b]: the rights conveyed by [a] are a subset of those of
   [b].  Used by property tests to state monotonicity, and by the kernel to
   validate delegations. *)
let rights_subset a b =
  (not a.tag)
  || (b.tag
     && Perms.subset a.perms b.perms
     && U64.ge a.base b.base
     && U64.le (top a) (U64.add b.base b.length)
     && U64.le a.length b.length)

(* --- Memory image ------------------------------------------------------ *)

(* In-memory layout of a 256-bit capability (little-endian):
     bytes  0.. 7 : flags word — bit 0 sealed; bits 1..31 perms;
                    bits 32..55 otype; bits 56..63 uninterpreted
     bytes  8..15 : uninterpreted
     bytes 16..23 : base
     bytes 24..31 : length
   The tag is *not* part of the 32 bytes: it lives in the tag table
   (Section 4.2), exactly as in hardware.  Every bit of the image maps to
   a record field, so load/store round-trips are exact even for registers
   holding plain data. *)

let size_bytes = 32

(* Word-granule image accessors: the flags word packs sealed/perms/otype
   and the uninterpreted high byte.  [of_words]/[flags_word] let the
   machine's CLC/CSC path move capabilities through memory as four
   64-bit words without materialising an intermediate [Bytes] buffer
   (that allocation was measurable on the simulator's hot path);
   [of_bytes]/[to_bytes] below are the same codec over a buffer.  Both
   are inlined into the machine's CLC/CSC, so the flags word travels
   unboxed (three words saved per capability load and store). *)
let[@inline] flags_word c =
  Int64.logor
    (if c.sealed then 1L else 0L)
    (Int64.logor
       (Int64.shift_left (Int64.of_int (Perms.to_int c.perms)) 1)
       (Int64.logor
          (Int64.shift_left (Int64.of_int c.otype) 32)
          (Int64.shift_left (Int64.of_int c.flags_rest) 56)))

let reserved_word c = c.reserved

let[@inline] of_words ~tag ~flags ~reserved ~base ~length =
  let sealed = Int64.logand flags 1L = 1L in
  let perms =
    Perms.of_int (Int64.to_int (Int64.logand (Int64.shift_right_logical flags 1) 0x7FFF_FFFFL))
  in
  let otype =
    Int64.to_int (Int64.logand (Int64.shift_right_logical flags 32) (Int64.of_int otype_mask))
  in
  let flags_rest = Int64.to_int (Int64.shift_right_logical flags 56) in
  { tag; sealed; perms; otype; base; length; flags_rest; reserved }

(* [of_words] that returns [prev] itself when the image decodes to a
   capability equal to it.  Every bit of the flags word round-trips, so
   comparing the four words and the tag is comparing every field.
   Capabilities are immutable and compared structurally, so sharing is
   unobservable; a CLC that reloads the value its destination register
   already holds (more than half of the CLCs of the compartment-server
   workload) then allocates nothing. *)
let[@inline] of_words_reusing ~prev ~tag ~flags ~reserved ~base ~length =
  if
    tag = prev.tag
    && Int64.equal base prev.base
    && Int64.equal length prev.length
    && Int64.equal reserved prev.reserved
    && Int64.equal flags (flags_word prev)
  then prev
  else of_words ~tag ~flags ~reserved ~base ~length

let to_bytes c =
  let b = Bytes.make size_bytes '\000' in
  Bytes.set_int64_le b 0 (flags_word c);
  Bytes.set_int64_le b 8 c.reserved;
  Bytes.set_int64_le b 16 c.base;
  Bytes.set_int64_le b 24 c.length;
  b

let of_bytes ~tag b =
  if Bytes.length b <> size_bytes then invalid_arg "Capability.of_bytes";
  of_words ~tag ~flags:(Bytes.get_int64_le b 0) ~reserved:(Bytes.get_int64_le b 8)
    ~base:(Bytes.get_int64_le b 16) ~length:(Bytes.get_int64_le b 24)
