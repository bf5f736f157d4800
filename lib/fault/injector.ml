(* Deterministic, seed-driven fault injector.

   Models single-event upsets in the structures the paper's protection
   argument (Sections 3-4) is about: general-purpose registers, capability
   registers (any bit of the 256-bit image, or the tag), physical memory
   words, and tag-table bits.  A planned injection fires exactly once, at a
   PRNG-chosen retired-instruction count, via [Machine.set_step_hook] — the
   cycle and cache models are untouched, and a machine with no injector
   armed pays nothing.

   Memory faults target the *live* footprint of the program — the caller
   passes the regions the golden run actually touched (its allocations and
   its stack window) rather than the whole address space, so upsets land on
   state the program depends on instead of dead arena padding.  This is the
   standard refinement in fault-injection campaigns: uniform injection over
   a sparse address space measures the sparsity, not the protection.

   Note the two deliberately *architecture-subversive* sites:
     - [Mem_word] flips a bit through [Mem.Phys] directly, without clearing
       the line's tag — the hardware-fault analogue of the forgery that
       [Machine.store_scalar] architecturally prevents;
     - [Tag_bit] can *set* a tag over arbitrary data, forging a capability
       out of thin air.
   The campaign measures how often the capability machinery (or the
   invariant monitor) still catches the consequences. *)

type site = Gpr | Cap_reg | Mem_word | Tag_bit

let all_sites = [ Gpr; Cap_reg; Mem_word; Tag_bit ]
let site_name = function Gpr -> "gpr" | Cap_reg -> "cap" | Mem_word -> "mem" | Tag_bit -> "tag"

let site_of_string = function
  | "gpr" -> Some Gpr
  | "cap" -> Some Cap_reg
  | "mem" -> Some Mem_word
  | "tag" -> Some Tag_bit
  | _ -> None

(* Capability registers the compiler and kernel actually populate: $c0 (the
   legacy data root every load/store is relative to), $c1 (the call-shuffle
   scratch), $c3..$c10 (the codegen temporary pool and return register), and
   the PCC (encoded as 32).  Upsetting a register nothing ever reads would
   measure the register file's sparsity, not the protection model. *)
let cap_targets = [| 0; 1; 3; 4; 5; 6; 7; 8; 9; 10; 32 |]

type t = {
  prng : Prng.t;
  sites : site list;
  regions : (int64 * int64) array; (* live (addr, len) windows for Mem_word/Tag_bit *)
  at_instret : int64; (* fire just before this retired-instruction count *)
  mutable injected : string option; (* description, once fired *)
}

(* [plan ~seed ~sites ~regions ~window] draws the injection time uniformly
   from [0, window) (the golden run's instruction count).  All further
   choices (site, target, bit) are drawn from the same stream at fire time,
   so one seed fully determines one fault. *)
let plan ~seed ?(sites = all_sites) ~regions ~window () =
  if sites = [] then invalid_arg "Injector.plan: empty site list";
  let prng = Prng.create seed in
  let at = if Int64.compare window 0L <= 0 then 0L else Prng.int64 prng window in
  { prng; sites; regions; at_instret = at; injected = None }

let flip_bit64 v bit = Int64.logxor v (Int64.shift_left 1L bit)

let inject_gpr t (m : Machine.t) =
  let reg = 1 + Prng.int t.prng 31 and bit = Prng.int t.prng 64 in
  Machine.set_gpr m reg (flip_bit64 (Machine.gpr m reg) bit);
  Printf.sprintf "gpr r%d bit %d" reg bit

(* Flip one bit of a capability register: either the tag, or one of the
   256 architectural image bits (byte 16+ is the base, 24+ the length,
   the low flags word carries sealed/perms/otype — see Capability).  The
   corruption goes through the serialised image, so it models a register-
   file upset without widening the capability API. *)
let inject_cap t (m : Machine.t) =
  let reg = cap_targets.(Prng.int t.prng (Array.length cap_targets)) in
  (* 32 = PCC *)
  let c = if reg = 32 then m.Machine.pcc else Machine.cap m reg in
  let descr, c' =
    if Prng.int t.prng 9 = 0 then
      ( "tag",
        Cap.Capability.of_bytes ~tag:(not (Cap.Capability.tag c)) (Cap.Capability.to_bytes c) )
    else begin
      let bit = Prng.int t.prng 256 in
      let image = Cap.Capability.to_bytes c in
      Bytes.set image (bit / 8)
        (Char.chr (Char.code (Bytes.get image (bit / 8)) lxor (1 lsl (bit mod 8))));
      (Printf.sprintf "bit %d" bit, Cap.Capability.of_bytes ~tag:(Cap.Capability.tag c) image)
    end
  in
  if reg = 32 then m.Machine.pcc <- c' else Machine.set_cap m reg c';
  Printf.sprintf "cap %s %s" (if reg = 32 then "pcc" else Printf.sprintf "c%d" reg) descr

(* Pick the [k]-th granule of size [unit] across the live regions (each
   region contributes [len / unit] granules starting at its base rounded
   down to a granule boundary). *)
let nth_granule regions ~unit k =
  let rec go i k =
    if i >= Array.length regions then None
    else
      let addr, len = regions.(i) in
      let here = Int64.div len unit in
      if Int64.unsigned_compare k here < 0 then
        Some (Int64.add (Int64.mul (Int64.div addr unit) unit) (Int64.mul k unit))
      else go (i + 1) (Int64.sub k here)
  in
  go 0 k

let total_granules regions ~unit =
  Array.fold_left (fun acc (_, len) -> Int64.add acc (Int64.div len unit)) 0L regions

let inject_mem t (m : Machine.t) =
  let words = total_granules t.regions ~unit:8L in
  if Int64.compare words 0L <= 0 then "mem <empty range>"
  else begin
    let addr =
      match nth_granule t.regions ~unit:8L (Prng.int64 t.prng words) with
      | Some a -> a
      | None -> assert false
    in
    let bit = Prng.int t.prng 64 in
    (* A hardware upset: the word changes but the line's tag does not. *)
    Mem.Phys.write_u64 m.Machine.phys addr (flip_bit64 (Mem.Phys.read_u64 m.Machine.phys addr) bit);
    Printf.sprintf "mem 0x%Lx bit %d" addr bit
  end

let inject_tag t (m : Machine.t) =
  let line_bytes = Int64.of_int (Mem.Tags.granularity m.Machine.tags) in
  let lines = total_granules t.regions ~unit:line_bytes in
  if Int64.compare lines 0L <= 0 then "tag <empty range>"
  else begin
    let addr =
      match nth_granule t.regions ~unit:line_bytes (Prng.int64 t.prng lines) with
      | Some a -> a
      | None -> assert false
    in
    let old = Mem.Tags.get m.Machine.tags (Int64.to_int addr) in
    Mem.Tags.set m.Machine.tags (Int64.to_int addr) (not old);
    Printf.sprintf "tag line 0x%Lx %s" addr (if old then "cleared" else "forged")
  end

let inject_now t m =
  match Prng.choose t.prng t.sites with
  | Gpr -> inject_gpr t m
  | Cap_reg -> inject_cap t m
  | Mem_word -> inject_mem t m
  | Tag_bit -> inject_tag t m

(* [poll t m] fires the planned injection if its time has come (and it has
   not fired already).  Callers that multiplex the machine's single step
   hook — e.g. a campaign that also samples an invariant monitor — call
   this from their own hook; standalone users just [arm]. *)
let poll t (m : Machine.t) =
  if t.injected = None && Int64.compare (Int64.of_int m.Machine.instret) t.at_instret >= 0 then
    t.injected <- Some (inject_now t m)

(* Hook the planned injection into [Machine.step].  The hook self-disarms
   after firing so steady-state runs pay one comparison per step. *)
let arm t (m : Machine.t) =
  Machine.set_step_hook m
    (Some
       (fun m ->
         poll t m;
         if t.injected <> None then Machine.set_step_hook m None))

let description t = t.injected
let fired t = t.injected <> None
