(* A set-associative, write-back, write-allocate cache model with LRU
   replacement.  Purely a performance model: data lives in [Phys]; the
   cache tracks only which lines are resident, so it can be driven by both
   the machine and the trace-replay simulators.

   The model sits on the simulator's per-instruction path (every fetch and
   every data access touches it), so [access] is engineered to be
   allocation-free: geometry is restricted to powers of two and indexing
   is native-int shift/mask (no boxed [Int64.div]/[unsigned_rem]), way
   search and victim selection are loops over the set (no intermediate
   lists), and the two possible [Miss] outcomes are preallocated
   constants. *)

type line = { mutable tag : int; mutable valid : bool; mutable dirty : bool; mutable lru : int }

type t = {
  name : string;
  line_bytes : int;
  sets : int;
  assoc : int;
  line_bits : int; (* log2 line_bytes: addr -> line index by shift *)
  set_bits : int; (* log2 sets: line index -> (set, tag) by mask/shift *)
  data : line array array; (* [set].[way] *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable writebacks : int;
  (* One-line MRU front: the line index touched by the previous access
     and the way holding it.  Sequential fetch and streaming data runs
     hit the same line many times in a row; the front turns those
     repeats into one compare + the same counter/LRU updates the full
     way search would make, bit-exactly.  [mru_way] always backs
     [mru_line] because every access (including the eviction of that
     way) re-points the front at its own line.  -1 = empty. *)
  mutable mru_line : int;
  mutable mru_way : line;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* log2 of a power of two. *)
let log2 n =
  let rec go b v = if v <= 1 then b else go (b + 1) (v lsr 1) in
  go 0 n

let create ~name ~size_bytes ~line_bytes ~assoc =
  if line_bytes <= 0 || assoc <= 0 || size_bytes mod (line_bytes * assoc) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create %s: size %d B is not a multiple of line_bytes*assoc = %d*%d"
         name size_bytes line_bytes assoc);
  if not (is_pow2 line_bytes) then
    invalid_arg
      (Printf.sprintf
         "Cache.create %s: line_bytes %d is not a power of two (required by shift/mask indexing)"
         name line_bytes);
  let sets = size_bytes / (line_bytes * assoc) in
  if not (is_pow2 sets) then
    invalid_arg
      (Printf.sprintf
         "Cache.create %s: derived set count %d (= %d B / (%d B lines x %d ways)) is not a \
          power of two (required by shift/mask indexing)"
         name sets size_bytes line_bytes assoc);
  {
    name;
    line_bytes;
    sets;
    assoc;
    line_bits = log2 line_bytes;
    set_bits = log2 sets;
    data =
      Array.init sets (fun _ ->
          Array.init assoc (fun _ -> { tag = 0; valid = false; dirty = false; lru = 0 }));
    tick = 0;
    hits = 0;
    misses = 0;
    writebacks = 0;
    mru_line = -1;
    mru_way = { tag = 0; valid = false; dirty = false; lru = 0 };
  }

let size_bytes t = t.sets * t.assoc * t.line_bytes

(* Line index of an address: the unit the hierarchy iterates over.
   Physical addresses fit a native int (63 bits), so this is a plain
   shift. *)
let line_index t addr = Int64.to_int addr lsr t.line_bits

(* Result of touching one line. *)
type outcome = Hit | Miss of { writeback : bool }

(* Preallocated outcomes: [access] never allocates. *)
let miss_clean = Miss { writeback = false }
let miss_writeback = Miss { writeback = true }

(* [access_line t ~line ~write] touches line index [line] (= addr /
   line_bytes).  On a miss the first invalid way — or, with the set full,
   the least-recently-used way — is evicted (recording a writeback if it
   was dirty) and the new line installed. *)
let access_line_slow t ~line ~write =
  t.tick <- t.tick + 1;
  let set = t.data.(line land (t.sets - 1)) in
  let tag = line lsr t.set_bits in
  let n = t.assoc in
  (* Way search and victim pick are plain loops: a local recursive
     function would capture [set] and [tag] and allocate its closure on
     every call. *)
  let way = ref (-1) and i = ref 0 in
  while !way < 0 && !i < n do
    let l = Array.unsafe_get set !i in
    if l.valid && l.tag = tag then way := !i;
    incr i
  done;
  if !way >= 0 then begin
    let l = Array.unsafe_get set !way in
    t.hits <- t.hits + 1;
    l.lru <- t.tick;
    if write then l.dirty <- true;
    t.mru_line <- line;
    t.mru_way <- l;
    Hit
  end
  else begin
    t.misses <- t.misses + 1;
    (* Prefer the first invalid way; otherwise evict the least recently
       used (earliest way wins ties, matching the reference fold). *)
    let v = ref (Array.unsafe_get set 0) and i = ref 1 in
    while !v.valid && !i < n do
      let l = Array.unsafe_get set !i in
      if (not l.valid) || l.lru < !v.lru then v := l;
      incr i
    done;
    let v = !v in
    let writeback = v.valid && v.dirty in
    if writeback then t.writebacks <- t.writebacks + 1;
    v.valid <- true;
    v.dirty <- write;
    v.tag <- tag;
    v.lru <- t.tick;
    (* Installing may have evicted the way behind the front; re-pointing
       the front at the line just installed restores the invariant. *)
    t.mru_line <- line;
    t.mru_way <- v;
    if writeback then miss_writeback else miss_clean
  end

let[@inline] access_line t ~line ~write =
  if line = t.mru_line then begin
    (* MRU-front hit: same line as the previous access, still resident by
       the front invariant (every access, including the eviction of the
       fronted way, re-points the front at its own line).  Counter and
       LRU updates are exactly the full hit path's. *)
    t.tick <- t.tick + 1;
    let l = t.mru_way in
    t.hits <- t.hits + 1;
    l.lru <- t.tick;
    if write then l.dirty <- true;
    Hit
  end
  else access_line_slow t ~line ~write

(* [access t ~addr ~write] touches the line containing [addr]. *)
let access t ~addr ~write = access_line t ~line:(line_index t addr) ~write

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0;
  t.writebacks <- 0

let flush t =
  Array.iter (Array.iter (fun l -> l.valid <- false; l.dirty <- false)) t.data;
  t.mru_line <- -1

(* Snapshot/restore for the warm-server reset: residency, tags, dirty
   bits, LRU order, and stats are captured into flat int arrays (one
   copy, no per-line allocation on restore) and written back in place.
   The MRU front is emptied like [flush] does — the next access takes
   the full way search, which makes identical counter and LRU updates,
   so replay after restore is bit-exact. *)
type snapshot = {
  s_tag : int array; (* [set * assoc + way] *)
  s_lru : int array;
  s_flags : Bytes.t; (* bit0 valid, bit1 dirty *)
  s_tick : int;
  s_hits : int;
  s_misses : int;
  s_writebacks : int;
}

let snapshot t =
  let n = t.sets * t.assoc in
  let s_tag = Array.make n 0 and s_lru = Array.make n 0 and s_flags = Bytes.make n '\000' in
  for s = 0 to t.sets - 1 do
    let set = t.data.(s) in
    for w = 0 to t.assoc - 1 do
      let l = set.(w) in
      let i = (s * t.assoc) + w in
      s_tag.(i) <- l.tag;
      s_lru.(i) <- l.lru;
      Bytes.unsafe_set s_flags i
        (Char.unsafe_chr ((if l.valid then 1 else 0) lor if l.dirty then 2 else 0))
    done
  done;
  { s_tag; s_lru; s_flags; s_tick = t.tick; s_hits = t.hits; s_misses = t.misses; s_writebacks = t.writebacks }

let restore t (s : snapshot) =
  for set = 0 to t.sets - 1 do
    let ways = t.data.(set) in
    for w = 0 to t.assoc - 1 do
      let l = ways.(w) in
      let i = (set * t.assoc) + w in
      let f = Char.code (Bytes.unsafe_get s.s_flags i) in
      l.tag <- s.s_tag.(i);
      l.lru <- s.s_lru.(i);
      l.valid <- f land 1 <> 0;
      l.dirty <- f land 2 <> 0
    done
  done;
  t.tick <- s.s_tick;
  t.hits <- s.s_hits;
  t.misses <- s.s_misses;
  t.writebacks <- s.s_writebacks;
  t.mru_line <- -1

let pp_stats ppf t =
  let total = t.hits + t.misses in
  Fmt.pf ppf "%s: %d accesses, %d misses (%.2f%%), %d writebacks" t.name total
    t.misses
    (if total = 0 then 0.0 else 100.0 *. float_of_int t.misses /. float_of_int total)
    t.writebacks
