(* Physical memory: a page table of 4 KiB byte pages with little-endian
   scalar accessors.

   (BERI is big-endian MIPS; we model memory little-endian since no
   reproduced result depends on byte order — noted in DESIGN.md.)  Raises
   [Bus_error] for accesses outside the populated range, which the machine
   turns into an address-error exception.

   One copy-on-write rule does three jobs.  Every slot of a new page
   table points at one shared page of zeros that is never written, so
   creating a 64 MiB machine costs a 16 Ki-slot array instead of a 64 MiB
   zero fill.  A byte-per-page "owned" map says which slots hold this
   image's private copy; the first write to a page that is not owned
   copies it (the zero page or a snapshot's page) and marks it owned.
   [snapshot] copies the page table and clears the owned map, so every
   page becomes shared with the snapshot and none is copied; [restore]
   points each owned slot back at the snapshot's page.  The owned map is
   therefore also the dirty map: the pages written since the last
   snapshot (or since [create]).

   Pages are 4 KiB: the dirty granule the warm-server reset and the
   machine's SMC check already use, and above [Max_young_wosize], so a
   page copy is allocated on the major heap and the minor-heap
   words-per-instruction figure does not move. *)

exception Bus_error of int64

let page_bits = 12
let page_bytes = 1 lsl page_bits
let page_mask = page_bytes - 1

(* Shared by every image and never written: a slot that points here is
   not owned, so [own] copies it before the first write. *)
let zero_page = Bytes.make page_bytes '\000'

type t = {
  table : Bytes.t array; (* never replaced; only its slots change *)
  size : int;
  owned : Bytes.t; (* one byte per page; '\001' = private copy, written since snapshot *)
  mutable snap_stamp : int; (* bumped by [snapshot]; restore checks it *)
}

type snapshot = { base : Bytes.t array; stamp : int }

let create ~size_bytes =
  let pages = max 1 ((size_bytes + page_bytes - 1) lsr page_bits) in
  {
    table = Array.make pages zero_page;
    size = size_bytes;
    owned = Bytes.make pages '\000';
    snap_stamp = 0;
  }

let size t = t.size
let page_table t = t.table

(* Byte index of a [size]-byte access at an address that fits a native
   int; the full-width accessors below first reject any address that does
   not (it is outside memory whatever its low bits). *)
let index t addr size =
  if addr < 0 || addr > t.size - size then raise (Bus_error (Int64.of_int addr)) else addr

let index64 t addr size =
  let i = Int64.to_int addr in
  if Int64.equal (Int64.of_int i) addr then index t i size else raise (Bus_error addr)

let copy_page t p =
  t.table.(p) <- Bytes.copy t.table.(p);
  Bytes.unsafe_set t.owned p '\001'

(* Make page [p] private to this image before a write: copy it on the
   first write since the last snapshot. *)
let[@inline] own t p = if Bytes.unsafe_get t.owned p = '\000' then copy_page t p

(* Scalars are at most 8 bytes, so a write of one covers at most two
   pages: the first and the last. *)
let[@inline] own_scalar t i len =
  own t (i lsr page_bits);
  own t ((i + len - 1) lsr page_bits)

let write_index t addr size =
  let i = index t addr size in
  own_scalar t i size;
  i

(* Little-endian scalar of [size] <= 4 bytes at byte index [i], as a
   native int: one Stdlib accessor inside a page, byte by byte across a
   page boundary. *)
let get_small t i size =
  let o = i land page_mask in
  if o + size <= page_bytes then begin
    let pg = t.table.(i lsr page_bits) in
    match size with
    | 1 -> Bytes.get_uint8 pg o
    | 2 -> Bytes.get_uint16_le pg o
    | _ -> Int32.to_int (Bytes.get_int32_le pg o) land 0xFFFF_FFFF
  end
  else begin
    let v = ref 0 in
    for k = size - 1 downto 0 do
      let j = i + k in
      v := (!v lsl 8) lor Bytes.get_uint8 t.table.(j lsr page_bits) (j land page_mask)
    done;
    !v
  end

let set_small t i size v =
  own_scalar t i size;
  let o = i land page_mask in
  if o + size <= page_bytes then begin
    let pg = t.table.(i lsr page_bits) in
    match size with
    | 1 -> Bytes.set_uint8 pg o (v land 0xFF)
    | 2 -> Bytes.set_uint16_le pg o (v land 0xFFFF)
    | _ -> Bytes.set_int32_le pg o (Int32.of_int v)
  end
  else
    for k = 0 to size - 1 do
      let j = i + k in
      Bytes.set_uint8 t.table.(j lsr page_bits) (j land page_mask) ((v lsr (8 * k)) land 0xFF)
    done

let read_u8 t addr = get_small t (index64 t addr 1) 1
let write_u8 t addr v = set_small t (index64 t addr 1) 1 v
let read_u16 t addr = get_small t (index64 t addr 2) 2
let write_u16 t addr v = set_small t (index64 t addr 2) 2 v
let read_u32 t addr = get_small t (index64 t addr 4) 4
let write_u32 t addr v = set_small t (index64 t addr 4) 4 v

(* A doubleword across a page boundary is two words. *)
let read_u64 t addr =
  let i = index64 t addr 8 in
  let o = i land page_mask in
  if o <= page_bytes - 8 then Bytes.get_int64_le t.table.(i lsr page_bits) o
  else
    Int64.logor
      (Int64.of_int (get_small t i 4))
      (Int64.shift_left (Int64.of_int (get_small t (i + 4) 4)) 32)

let write_u64 t addr v =
  let i = index64 t addr 8 in
  let o = i land page_mask in
  if o <= page_bytes - 8 then begin
    own_scalar t i 8;
    Bytes.set_int64_le t.table.(i lsr page_bits) o v
  end
  else begin
    set_small t i 4 (Int64.to_int v);
    set_small t (i + 4) 4 (Int64.to_int (Int64.shift_right_logical v 32))
  end

(* Bulk transfers blit page chunk by page chunk: bytes [pos] onwards of
   a transfer at byte index [i] start at offset [(i + pos) land
   page_mask] of their page and run at most to its end. *)
let chunk i len pos = min (len - pos) (page_bytes - ((i + pos) land page_mask))

let read_bytes t addr len =
  let i = index64 t addr len in
  let b = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let j = i + !pos and n = chunk i len !pos in
    Bytes.blit t.table.(j lsr page_bits) (j land page_mask) b !pos n;
    pos := !pos + n
  done;
  b

let write_bytes t addr b =
  let len = Bytes.length b in
  let i = index64 t addr len in
  let pos = ref 0 in
  while !pos < len do
    let j = i + !pos and n = chunk i len !pos in
    let p = j lsr page_bits in
    own t p;
    Bytes.blit b !pos t.table.(p) (j land page_mask) n;
    pos := !pos + n
  done

let snapshot t =
  t.snap_stamp <- t.snap_stamp + 1;
  Bytes.fill t.owned 0 (Bytes.length t.owned) '\000';
  { base = Array.copy t.table; stamp = t.snap_stamp }

let dirty_pages t =
  let acc = ref [] in
  for p = Bytes.length t.owned - 1 downto 0 do
    if Bytes.unsafe_get t.owned p <> '\000' then acc := p :: !acc
  done;
  !acc

let restore t snap =
  if snap.stamp <> t.snap_stamp then
    invalid_arg "Phys.restore: stale snapshot (a newer snapshot exists)";
  let n = ref 0 in
  for p = 0 to Bytes.length t.owned - 1 do
    if Bytes.unsafe_get t.owned p <> '\000' then begin
      t.table.(p) <- snap.base.(p);
      Bytes.unsafe_set t.owned p '\000';
      incr n
    end
  done;
  !n
