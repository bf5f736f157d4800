(* Capability revocation by tag sweep (Section 11).

   "The presence of tagged memory also provides opportunities to enforce
   temporal safety.  Tags allow us to identify all references, so we can
   provide accurate garbage collection to low-level languages such as C.
   Possibilities include a non-reuse allocator (to eliminate most dangling
   pointer errors) that periodically runs a tracing pass to identify
   reusable address space."

   Because every capability in the system is identifiable — tagged
   256-bit lines in memory, plus the register file and PCC — revoking a
   region is a precise sweep: clear the tag of every capability whose
   segment intersects the revoked range.  Dangling capabilities then fault
   on their next use (tag violation), giving deterministic temporal
   safety without address-space reuse hazards.

   The same sweep, run in collection mode, *finds* the live capabilities
   instead: the tracing pass of the paper's non-reuse allocator. *)

open Cap

let intersects c ~base ~length =
  Capability.tag c
  && U64.lt (Capability.base c) (U64.add base length)
  && U64.lt base (U64.add (Capability.base c) (Capability.length c))

(* Sweep statistics. *)
type stats = {
  memory_capabilities_scanned : int;
  memory_capabilities_revoked : int;
  register_capabilities_revoked : int;
}

(* [revoke machine ~base ~length] clears the tag of every capability —
   in memory or in the register file — that grants access to any byte of
   [base, base+length).  Returns sweep statistics.  O(tagged lines): the
   tag table tells the sweep exactly where capabilities live, so untagged
   memory is never touched. *)
let revoke (m : Machine.t) ~base ~length =
  let scanned = ref 0 and revoked = ref 0 and regs = ref 0 in
  let mem_size = Mem.Phys.size m.Machine.phys in
  let line = ref 0L in
  let line_bytes = Int64.of_int Mem.Tags.line_bytes in
  while Int64.to_int !line < mem_size do
    if Mem.Tags.get m.Machine.tags (Int64.to_int !line) then begin
      incr scanned;
      let c =
        Capability.of_bytes ~tag:true (Mem.Phys.read_bytes m.Machine.phys !line 32)
      in
      if intersects c ~base ~length then begin
        Mem.Tags.set m.Machine.tags (Int64.to_int !line) false;
        incr revoked
      end
    end;
    line := Int64.add !line line_bytes
  done;
  for i = 0 to 31 do
    let c = Machine.cap m i in
    if intersects c ~base ~length then begin
      Machine.set_cap m i (Capability.clear_tag c);
      incr regs
    end
  done;
  if intersects m.Machine.pcc ~base ~length then begin
    m.Machine.pcc <- Capability.clear_tag m.Machine.pcc;
    incr regs
  end;
  {
    memory_capabilities_scanned = !scanned;
    memory_capabilities_revoked = !revoked;
    register_capabilities_revoked = !regs;
  }

(* [live_capability_roots machine] is the tracing pass of the non-reuse
   allocator: every segment currently reachable from a tagged capability
   anywhere in the system, as (base, length) pairs.  Address space outside
   every returned segment is provably unreferenced and reusable. *)
let live_capability_roots (m : Machine.t) =
  let roots = ref [] in
  let mem_size = Mem.Phys.size m.Machine.phys in
  let line = ref 0L in
  let line_bytes = Int64.of_int Mem.Tags.line_bytes in
  while Int64.to_int !line < mem_size do
    if Mem.Tags.get m.Machine.tags (Int64.to_int !line) then begin
      let c =
        Capability.of_bytes ~tag:true (Mem.Phys.read_bytes m.Machine.phys !line 32)
      in
      roots := (Capability.base c, Capability.length c) :: !roots
    end;
    line := Int64.add !line line_bytes
  done;
  for i = 0 to 31 do
    let c = Machine.cap m i in
    if Capability.tag c then roots := (Capability.base c, Capability.length c) :: !roots
  done;
  !roots
