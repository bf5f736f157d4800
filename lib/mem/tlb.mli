(** Address translation: a page table plus a TLB-reach model.

    The model uses identity virtual-to-physical mapping; what matters
    architecturally is (a) per-page permissions, including the CHERI page
    table extension bits authorising capability loads and stores (§6.1),
    and (b) TLB reach — Figure 5's steps come from a TLB covering 1 MB
    (256 x 4 KB entries), reproduced by counting hits and misses over a
    fully-associative LRU entry set.

    The hot paths are allocation-free: {!touch} fronts its VPN -> slot
    hashtable with a one-entry last-translation cache and scans an int
    array for the LRU victim; {!protection} memoises page-table lookups
    in a small direct-mapped array invalidated on {!map}/{!unmap}.
    Replacement is true LRU with unique ticks, so hit/miss counts are
    bit-exact with the reference implementation. *)

val page_bits : int
val page_bytes : int

type prot = {
  valid : bool;
  writable : bool;
  executable : bool;
  cap_load : bool;  (** CHERI PTE extension: authorise capability loads *)
  cap_store : bool;  (** ... and capability stores *)
}

val prot_none : prot

(** Read/write/execute plus both capability bits. *)
val prot_rwx : prot

type t = {
  entries : int;
  table : (int, prot) Hashtbl.t;
  slot_of : (int, int) Hashtbl.t;
  slot_vpn : int array;
  slot_tick : int array;
  mutable used : int;
  mutable last_vpn : int;
  mutable last_slot : int;
  prot_vpn : int array;
  prot_val : prot array;
  slot_memo_vpn : int array;
  slot_memo_slot : int array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable version : int;
}

val create : ?entries:int -> unit -> t

(** Map (or remap) the pages covering [vaddr, vaddr+len). *)
val map : t -> vaddr:int64 -> len:int -> prot -> unit

val unmap : t -> vaddr:int64 -> len:int -> unit

(** Protections of the page containing the address ({!prot_none} when
    unmapped).  The lookups take the address as a native int: the
    machine only translates addresses that fit one. *)
val protection : t -> int -> prot

(** Touch the TLB for a translation; [false] = miss (LRU refill
    modelled). *)
val touch : t -> int -> bool

val flush : t -> unit
val reset_stats : t -> unit
val mapped_pages : t -> int

(** {1 Snapshot / restore} — architectural state (page table, residency,
    LRU ticks, stats) restored exactly; host-only memos are emptied,
    which is bit-exact because the slow paths they front make identical
    hit/miss decisions and counter updates. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
