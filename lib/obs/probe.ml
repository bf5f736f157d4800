(* The machine-side hook state: the zero-cost-when-disabled half of the
   counter file.  [lib/machine] carries an optional probe; when absent
   the per-step overhead is one pattern match (exactly like the existing
   [on_step] hook), and when present the probe classifies each retired
   instruction (capability ops, capability loads/stores, branches),
   drives the sampling profiler, and maintains the profiler's shadow
   call stack.

   The probe never touches the architectural state and never charges
   cycles, so a probed run is architecturally identical to an unprobed
   one — test_obs.ml asserts this bit-for-bit. *)

open Beri

(* Counters are native ints, widened to [int64] only in [fill], so a
   probed step boxes nothing. *)
type t = {
  mutable cap_ops : int; (* all CP2 instructions *)
  mutable cap_loads : int; (* loads via a capability (CLC, CL[BHWD], CLLD) *)
  mutable cap_stores : int; (* stores via a capability (CSC, CS[BHWD], CSCD) *)
  mutable branches : int; (* control-flow instructions of any kind *)
  profile : Profile.t option;
  attrib : Attrib.t option;
      (* per-PC / per-region miss attribution; when present the machine
         additionally routes memory-hierarchy and tag-table events here *)
  mutable sampled : int; (* profiler samples taken (mirrors Profile.total) *)
}

let create ?profile ?attrib () =
  { cap_ops = 0; cap_loads = 0; cap_stores = 0; branches = 0; profile; attrib; sampled = 0 }

let attrib t = t.attrib

(* Bounds length of a tagged capability moved to or from memory (CLC/CSC
   paths); feeds the attribution layer's bounds-length histogram. *)
let note_cap_bounds t ~len =
  match t.attrib with Some a -> Attrib.observe_cap_len a len | None -> ()

let is_cap_op = function
  | Insn.CGetBase _ | Insn.CGetLen _ | Insn.CGetTag _ | Insn.CGetPerm _ | Insn.CGetPCC _
  | Insn.CGetCause _ | Insn.CIncBase _ | Insn.CSetLen _ | Insn.CClearTag _ | Insn.CAndPerm _
  | Insn.CMove _ | Insn.CToPtr _ | Insn.CFromPtr _ | Insn.CBTU _ | Insn.CBTS _ | Insn.CLC _
  | Insn.CSC _ | Insn.CLoad _ | Insn.CStore _ | Insn.CLLD _ | Insn.CSCD _ | Insn.CJR _
  | Insn.CJALR _ | Insn.CSeal _ | Insn.CUnseal _ | Insn.CCall _ | Insn.CReturn ->
      true
  | _ -> false

let is_branch = function
  | Insn.J _ | Insn.Jal _ | Insn.Jr _ | Insn.Jalr _ | Insn.Beq _ | Insn.Bne _ | Insn.Blez _
  | Insn.Bgtz _ | Insn.Bltz _ | Insn.Bgez _ | Insn.CBTU _ | Insn.CBTS _ | Insn.CJR _
  | Insn.CJALR _ ->
      true
  | _ -> false

(* Classify and sample one retired instruction at [pc] (a native int:
   the machine only retires PCs that fit one).  Called by the machine in
   the same place [instret] is bumped, so the sample stream and the
   instruction counters describe exactly the same population. *)
let note t insn ~pc =
  if is_cap_op insn then t.cap_ops <- t.cap_ops + 1;
  (match insn with
  | Insn.CLC _ | Insn.CLoad _ | Insn.CLLD _ -> t.cap_loads <- t.cap_loads + 1
  | Insn.CSC _ | Insn.CStore _ | Insn.CSCD _ -> t.cap_stores <- t.cap_stores + 1
  | _ -> ());
  if is_branch insn then t.branches <- t.branches + 1;
  match t.profile with
  | Some p -> if Profile.step p pc then t.sampled <- t.sampled + 1
  | None -> ()

(* Call-graph tracking for collapsed stacks: the machine reports the
   *resolved* control transfer after executing a call or return (for
   register-indirect calls the target is only known post-execute). *)
let enter_frame t ~callee =
  match t.profile with Some p -> Profile.call p callee | None -> ()

let exit_frame t = match t.profile with Some p -> Profile.ret p | None -> ()

(* Deposit the probe-owned counters into a counter file snapshot. *)
let fill t (c : Counters.t) =
  Counters.set_int c Counters.cap_ops t.cap_ops;
  Counters.set_int c Counters.cap_loads t.cap_loads;
  Counters.set_int c Counters.cap_stores t.cap_stores;
  Counters.set_int c Counters.branches t.branches;
  Counters.set_int c Counters.samples t.sampled
