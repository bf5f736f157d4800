(** The general-purpose register file: 32 64-bit registers with $0
    hardwired to zero, plus HI/LO and the PC.

    The file is one [Bytes.t] of 35 raw 64-bit slots in native byte
    order: GPR [i] at byte offset [8 * i], then HI ({!hi_off}), LO
    ({!lo_off}) and the PC ({!pc_off}).  The machine reads and writes the
    slots with the [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives,
    so its per-instruction path never boxes an [int64].  Slot 0 is never
    written. *)

type t = Bytes.t

(** Byte offsets of HI, LO and the PC. *)

val hi_off : int
val lo_off : int
val pc_off : int

val create : unit -> t

(** [get t 0] is always 0.  @raise Invalid_argument outside 0..31. *)
val get : t -> int -> int64

(** Writes to register 0 are discarded.  @raise Invalid_argument outside
    0..31. *)
val set : t -> int -> int64 -> unit

val hi : t -> int64
val lo : t -> int64
val set_hi : t -> int64 -> unit
val set_lo : t -> int64 -> unit

(** A copy of every slot, the PC included. *)
val copy : t -> t

(** [load t src] overwrites [t] with [src] (context restore). *)
val load : t -> t -> unit

(** {1 ABI register numbers} *)

val zero : int
val at : int
val v0 : int
val v1 : int
val a0 : int
val a1 : int
val a2 : int
val a3 : int
val t0 : int
val t1 : int
val t2 : int
val t3 : int
val s0 : int
val s1 : int
val s2 : int
val s3 : int
val t8 : int
val t9 : int
val k0 : int
val k1 : int
val gp : int
val sp : int
val fp : int
val ra : int
