(* The general-purpose register file: 32 64-bit registers with $0 hardwired
   to zero, plus the HI/LO multiply-divide pair and the PC.

   All 35 values live as raw 64-bit slots in one [Bytes.t] (native byte
   order), so the machine's per-instruction path reads and writes them
   with the [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives and
   never boxes an [int64].  Slot 0 is never written, so it always reads
   as zero. *)

type t = Bytes.t

let hi_off = 32 * 8
let lo_off = 33 * 8
let pc_off = 34 * 8
let create () = Bytes.make (35 * 8) '\000'

let check i = if i land 31 <> i then invalid_arg "Regs: GPR index out of range"

let get t i =
  check i;
  Bytes.get_int64_ne t (i lsl 3)

let set t i v =
  check i;
  if i <> 0 then Bytes.set_int64_ne t (i lsl 3) v

let hi t = Bytes.get_int64_ne t hi_off
let lo t = Bytes.get_int64_ne t lo_off
let set_hi t v = Bytes.set_int64_ne t hi_off v
let set_lo t v = Bytes.set_int64_ne t lo_off v
let copy = Bytes.copy
let load t src = Bytes.blit src 0 t 0 (Bytes.length t)

(* Conventional MIPS ABI register assignments used by the assembler,
   compiler, and kernel. *)
let zero = 0
let at = 1
let v0 = 2
let v1 = 3
let a0 = 4
let a1 = 5
let a2 = 6
let a3 = 7
let t0 = 12
let t1 = 13
let t2 = 14
let t3 = 15
let s0 = 16
let s1 = 17
let s2 = 18
let s3 = 19
let t8 = 24
let t9 = 25
let k0 = 26
let k1 = 27
let gp = 28
let sp = 29
let fp = 30
let ra = 31
