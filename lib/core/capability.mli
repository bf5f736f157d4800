(** The CHERI-256 memory capability (Figure 1 of the paper).

    A capability is an unforgeable reference to a linear range
    [\[base, base+length)] of the virtual address space, carrying a
    permissions vector.  The tag bit distinguishes a valid capability from
    256 bits of plain data.

    Every manipulation operation is {e monotonic}: it can only reduce the
    rights conveyed.  This is the architectural property that makes the
    transitive closure of reachable capabilities a protection domain
    (Section 4.2 of the paper). *)

type t

(** {1 Distinguished values} *)

(** The reset capability: every permission over the whole 64-bit address
    space.  All capability registers hold it at reset so an unaware OS
    runs unconstrained (Section 4.3). *)
val almighty : t

(** The canonical untagged value; represents NULL. *)
val null : t

(** [make ~perms ~base ~length] is a fresh tagged, unsealed capability.
    Only trusted code (kernel model, test harnesses) may call this —
    simulated programs can only {e derive} capabilities. *)
val make : perms:Perms.t -> base:U64.t -> length:U64.t -> t

(** {1 Field accessors (CGetBase / CGetLen / CGetTag / CGetPerm)} *)

val base : t -> U64.t
val length : t -> U64.t
val tag : t -> bool
val perms : t -> Perms.t
val otype : t -> int
val is_sealed : t -> bool

(** Exclusive top of the segment, [base + length] (may wrap to 0 for the
    almighty capability). *)
val top : t -> U64.t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Monotonic manipulation (Table 1)} *)

(** [inc_base c delta]: advance the base by [delta], shrinking the length
    (CIncBase).  Fails with [Length_violation] if [delta > length], or
    [Tag_violation]/[Seal_violation] as appropriate. *)
val inc_base : t -> U64.t -> (t, Cause.t) result

(** [set_len c len]: reduce the length to [len] (CSetLen).  Extending is a
    [Length_violation]. *)
val set_len : t -> U64.t -> (t, Cause.t) result

(** [and_perm c mask]: intersect the permissions with [mask] (CAndPerm). *)
val and_perm : t -> Perms.t -> (t, Cause.t) result

(** [clear_tag c]: invalidate (CClearTag).  Always permitted. *)
val clear_tag : t -> t

(** {1 Pointer interoperation (Section 4.3)} *)

(** [to_ptr c ~relative_to] derives the C0-relative integer pointer
    (CToPtr); an untagged capability converts to 0. *)
val to_ptr : t -> relative_to:t -> U64.t

(** [from_ptr c0 ptr] re-derives a capability for [ptr] within [c0]
    (CFromPtr); [ptr = 0] yields {!null}. *)
val from_ptr : t -> U64.t -> (t, Cause.t) result

(** {1 Sealing (Section 11 domain-crossing extension)} *)

(** [seal c ~authority ~otype] seals [c] with object type [otype]; the
    [authority] capability must carry [Permit_Seal] and its segment must
    cover [otype]. *)
val seal : t -> authority:t -> otype:int -> (t, Cause.t) result

(** [unseal c ~authority ~otype]: inverse of {!seal}; the otype must
    match. *)
val unseal : t -> authority:t -> otype:int -> (t, Cause.t) result

(** {1 Access checking} *)

type access = Load | Store | Execute | Load_cap | Store_cap

(** [check_access c access ~addr ~size] validates a [size]-byte access at
    absolute address [addr] through [c]: tag set, unsealed, permission
    granted, in bounds.  This single function implements the check applied
    by every capability-relative load, store, and instruction fetch. *)
val check_access : t -> access -> addr:U64.t -> size:U64.t -> (unit, Cause.t) result

(** [check_access_int c access ~addr ~size] is {!check_access} for an
    address and size that fit a native int (the address as the signed
    value of its 64 bits).  It allocates nothing: the machine applies it
    to every instruction fetch and data access. *)
val check_access_int : t -> access -> addr:int -> size:int -> (unit, Cause.t) result

(** [rights_subset a b]: the rights conveyed by [a] are a subset of those
    of [b].  Monotonicity of the manipulation operations is stated (and
    property-tested) in terms of this relation. *)
val rights_subset : t -> t -> bool

(** {1 The 256-bit memory image} *)

(** 32: the in-memory size in bytes.  The tag is not part of the image —
    it lives in the tag table. *)
val size_bytes : int

(** Word-granule image codec — the 32-byte image as four little-endian
    64-bit words (flags, reserved, base, length), letting hot paths move
    capabilities through memory without an intermediate buffer.  The
    flags word packs sealed/perms/otype plus the uninterpreted high
    byte; every bit round-trips. *)

val flags_word : t -> U64.t

val reserved_word : t -> U64.t

val of_words : tag:bool -> flags:U64.t -> reserved:U64.t -> base:U64.t -> length:U64.t -> t

(** {!of_words}, but [prev] itself (no allocation) when the words and
    tag decode to a capability {!equal} to [prev]. *)
val of_words_reusing :
  prev:t -> tag:bool -> flags:U64.t -> reserved:U64.t -> base:U64.t -> length:U64.t -> t

(** Serialize to the 32-byte image (losslessly — registers may hold plain
    data). *)
val to_bytes : t -> bytes

(** [of_bytes ~tag b] deserializes; the caller supplies the tag bit from
    the tag table. *)
val of_bytes : tag:bool -> bytes -> t
