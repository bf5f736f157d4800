(** Physical memory: a page table of 4 KiB byte pages with little-endian
    scalar accessors.  Raises {!Bus_error} outside the populated range,
    which the machine turns into an address-error exception.

    Pages are copy-on-write.  A new image's slots all point at one shared
    page of zeros; the first write to a page this image does not own
    copies it (the zero page or a snapshot's page).  So {!create} costs a
    page-table array, not a zero fill, and {!snapshot} shares pages
    instead of copying the image. *)

exception Bus_error of int64

type t

val create : size_bytes:int -> t
val size : t -> int

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int
val write_u32 : t -> int64 -> int -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

(** {1 Unboxed access}

    The machine's per-instruction path: one bounds check on an address
    that fits a native int, then direct little-endian reads and writes of
    page [i lsr 12] of {!page_table} at offset [i land 4095], so no
    [int64] is boxed.  The accessors above and below handle an access
    that straddles two pages; this path is for naturally aligned ones,
    which never do. *)

(** The page table: slot [p] holds the bytes of page [p].  The array is
    never replaced, only its slots.  Reads may use any slot; writers
    must first obtain their index from {!write_index}, which makes the
    written page(s) private to this image.  A slot changes on a page's
    first write and on {!restore}, so hold no page across either. *)
val page_table : t -> Bytes.t array

(** Byte index of a [size]-byte access at [addr].
    @raise Bus_error when the access leaves the populated range. *)
val index : t -> int -> int -> int

(** {!index}, and makes the written page(s) owned: copied out of the
    shared zero page or snapshot page on first write, and marked dirty. *)
val write_index : t -> int -> int -> int

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

(** {1 Snapshot / restore}

    The pages an image owns are the pages written since the last
    {!snapshot} (or since {!create}).  {!snapshot} copies the page table
    and clears the owned map, so the image and the snapshot share every
    page; {!restore} points each owned slot back at the snapshot's page —
    the fast-reset primitive behind the warm server pool
    (docs/PERFORMANCE.md). *)

val page_bits : int
(** log2 {!page_bytes}: 12.  Byte index [i] is at offset
    [i land (page_bytes - 1)] of page [i lsr page_bits]. *)

val page_bytes : int
(** Page and dirty-tracking granule: 4096. *)

type snapshot

val snapshot : t -> snapshot
(** Capture the image by sharing its pages (O(pages) slots, no page is
    copied) and start dirty tracking from a clean slate.  Taking a new
    snapshot invalidates earlier ones (stamp check). *)

val restore : t -> snapshot -> int
(** Point every dirty page's slot back at the snapshot's page and clear
    the dirty map; returns the number of pages restored.  @raise Invalid_argument
    on a snapshot made stale by a later {!snapshot}. *)

val dirty_pages : t -> int list
(** Page indices written since the last {!snapshot} (ascending). *)
