(* Miss attribution: per-PC and per-virtual-region tables of
   microarchitectural events — which instructions miss in L1I/L1D/L2/TLB
   and the tag cache, and which generate DRAM traffic and tag writes.
   This is the layer that turns the whole-run counter file into the
   paper's Section 8 arguments ("capability loads dominate tag traffic",
   "the overhead is cache-miss-driven"): the same events the hierarchy
   already counts, keyed by the PC of the access and by a configurable
   power-of-two address granule.

   Events arrive through [record], called from the memory hierarchy's
   [on_event] hook (and the tag table's [on_write] hook) via a closure
   the machine installs in [Machine.set_probe]; the machine supplies the
   PC of the in-flight instruction.  With no probe attached the hooks
   are [None] and the access path pays one pattern match, exactly like
   the step probe.  Attribution is a pure observer: it never charges
   cycles or touches architectural state, so an attributed run is
   bit-identical to a bare one.

   Invariant (asserted by test_obs): for every miss class, the per-PC
   table, the per-region table, and the running totals all sum to the
   same value — and, when the probe was attached for the whole run, to
   the whole-run counter file's value. *)

(* One microarchitectural event at a data/fetch address.  Miss and
   traffic events feed the attribution cells; [Load]/[Store] feed the
   access-size histograms; [Tag_write] is the tag-table write stream
   (set = a tagged capability store, clear = any other store). *)
type event =
  | L1i_miss
  | L1d_miss
  | L2_miss
  | Tlb_miss
  | Tag_miss
  | Dram_read of int (* bytes *)
  | Dram_write of int (* bytes *)
  | Load of int (* access size, bytes *)
  | Store of int
  | Tag_write of bool (* true = tag set, false = tag cleared *)

(* Attribution classes: the columns of the per-PC / per-region tables.
   Order is the presentation and JSON order. *)
let class_names =
  [|
    "l1i_miss";
    "l1d_miss";
    "l2_miss";
    "tlb_miss";
    "tag_miss";
    "dram_read_bytes";
    "dram_write_bytes";
    "tag_sets";
    "tag_clears";
  |]

let n_classes = Array.length class_names
let c_l1i_miss = 0
let c_l1d_miss = 1
let c_l2_miss = 2
let c_tlb_miss = 3
let c_tag_miss = 4
let c_dram_read_bytes = 5
let c_dram_write_bytes = 6
let c_tag_sets = 7
let c_tag_clears = 8

let class_index name =
  let found = ref None in
  Array.iteri (fun i n -> if n = name then found := Some i) class_names;
  !found

type t = {
  granule_bits : int; (* region size = 2^granule_bits bytes *)
  (* Keys are native ints: PCs and addresses reach the memory model only
     when they fit one, so recording an event boxes nothing.  The
     read-side views below widen them back to [int64]. *)
  by_pc : (int, int array) Hashtbl.t;
  by_region : (int, int array) Hashtbl.t; (* key = addr lsr granule_bits *)
  totals : int array;
  load_size : Hist.t;
  store_size : Hist.t;
  reuse : Hist.t; (* L1D miss-reuse distance, in intervening misses *)
  cap_len : Hist.t; (* bounds length of capabilities moved to/from memory *)
  last_miss : (int, int) Hashtbl.t; (* D-line -> ordinal of its last miss *)
  mutable miss_seq : int;
  mutable labels : (int64 * int64 * string) list;
      (* (base, length, label) address-range annotations: compartment
         and section names for the region table.  Empty = unlabeled
         output, byte-identical to the pre-label rendering. *)
}

let default_granule_bits = 12 (* 4 KB pages *)

let create ?(granule_bits = default_granule_bits) () =
  if granule_bits < 0 || granule_bits > 62 then invalid_arg "Attrib.create: granule_bits";
  {
    granule_bits;
    by_pc = Hashtbl.create 1024;
    by_region = Hashtbl.create 256;
    totals = Array.make n_classes 0;
    load_size = Hist.create ~name:"load size [B]" ();
    store_size = Hist.create ~name:"store size [B]" ();
    reuse = Hist.create ~name:"L1D miss-reuse distance [misses]" ();
    cap_len = Hist.create ~name:"capability bounds length [B]" ();
    last_miss = Hashtbl.create 1024;
    miss_seq = 0;
    labels = [];
  }

(* Label address ranges — compartment regions, mailboxes, loaded
   sections — so the per-region report attributes misses to names, not
   just hex bases.  Ranges are matched first-wins in the given order. *)
let set_labels t labels = t.labels <- labels

let label_of t addr =
  let rec go = function
    | [] -> ""
    | (base, length, label) :: rest ->
        if
          Int64.unsigned_compare addr base >= 0
          && Int64.unsigned_compare addr (Int64.add base length) < 0
        then label
        else go rest
  in
  go t.labels

let granule_bytes t = 1 lsl t.granule_bits

let cell tbl key =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = Array.make n_classes 0 in
      Hashtbl.add tbl key c;
      c

let bump t ~pc ~addr cls amount =
  let pc_cell = cell t.by_pc pc in
  pc_cell.(cls) <- pc_cell.(cls) + amount;
  let region_cell = cell t.by_region (addr lsr t.granule_bits) in
  region_cell.(cls) <- region_cell.(cls) + amount;
  t.totals.(cls) <- t.totals.(cls) + amount

(* Reuse distance of an L1D miss: how many other misses occurred since
   this line last missed (32-byte line granularity, the hierarchy
   default).  First-touch misses are not observations. *)
let note_reuse t addr =
  let line = addr lsr 5 in
  (match Hashtbl.find_opt t.last_miss line with
  | Some prev -> Hist.observe_int t.reuse (t.miss_seq - prev - 1)
  | None -> ());
  Hashtbl.replace t.last_miss line t.miss_seq;
  t.miss_seq <- t.miss_seq + 1

let record t ~pc ~addr ev =
  match ev with
  | L1i_miss -> bump t ~pc ~addr c_l1i_miss 1
  | L1d_miss ->
      bump t ~pc ~addr c_l1d_miss 1;
      note_reuse t addr
  | L2_miss -> bump t ~pc ~addr c_l2_miss 1
  | Tlb_miss -> bump t ~pc ~addr c_tlb_miss 1
  | Tag_miss -> bump t ~pc ~addr c_tag_miss 1
  | Dram_read bytes -> bump t ~pc ~addr c_dram_read_bytes bytes
  | Dram_write bytes -> bump t ~pc ~addr c_dram_write_bytes bytes
  | Load size -> Hist.observe_int t.load_size size
  | Store size -> Hist.observe_int t.store_size size
  | Tag_write set -> bump t ~pc ~addr (if set then c_tag_sets else c_tag_clears) 1

let observe_cap_len t len = Hist.observe t.cap_len len

(* --- read-side views ---------------------------------------------------- *)

let total t cls = t.totals.(cls)

let table_total tbl cls =
  Hashtbl.fold (fun _ (c : int array) acc -> acc + c.(cls)) tbl 0

let pc_total t cls = table_total t.by_pc cls
let region_total t cls = table_total t.by_region cls

(* All rows of a table sorted by the [by] class descending (key ascending
   as the deterministic tie-break), truncated to [n] when given. *)
let top tbl ~by ?n () =
  let rows = Hashtbl.fold (fun k (c : int array) acc -> (Int64.of_int k, c) :: acc) tbl [] in
  let rows =
    List.sort
      (fun (k1, c1) (k2, c2) ->
        match compare c2.(by) c1.(by) with 0 -> Int64.compare k1 k2 | cmp -> cmp)
      rows
  in
  match n with Some n -> List.filteri (fun i _ -> i < n) rows | None -> rows

let top_pcs t ~by ?n () = top t.by_pc ~by ?n ()
let top_regions t ~by ?n () = top t.by_region ~by ?n ()
let hists t = [ t.load_size; t.store_size; t.reuse; t.cap_len ]

(* --- rendering ----------------------------------------------------------- *)

let row_to_json key_name key_str (c : int array) =
  Json.Obj
    ((key_name, Json.String key_str)
    :: Array.to_list (Array.mapi (fun i n -> (n, Json.Int (Int64.of_int c.(i)))) class_names))

let to_json ?(resolve = fun pc -> Printf.sprintf "0x%Lx" pc) ?n t =
  Json.Obj
    [
      ("granule_bytes", Json.Int (Int64.of_int (granule_bytes t)));
      ( "totals",
        Json.Obj
          (Array.to_list
             (Array.mapi (fun i n -> (n, Json.Int (Int64.of_int t.totals.(i)))) class_names)) );
      ( "by_pc",
        Json.List
          (List.map
             (fun (pc, c) ->
               (match row_to_json "pc" (Printf.sprintf "0x%Lx" pc) c with
               | Json.Obj fields -> Json.Obj (fields @ [ ("where", Json.String (resolve pc)) ])
               | j -> j))
             (top_pcs t ~by:c_l1d_miss ?n ())) );
      ( "by_region",
        Json.List
          (List.map
             (fun (region, c) ->
               let base = Int64.shift_left region t.granule_bits in
               let row = row_to_json "base" (Printf.sprintf "0x%Lx" base) c in
               match (t.labels, row) with
               | [], _ -> row
               | _, Json.Obj fields ->
                   Json.Obj (fields @ [ ("label", Json.String (label_of t base)) ])
               | _, j -> j)
             (top_regions t ~by:c_l1d_miss ?n ())) );
      ("hists", Json.List (List.map Hist.to_json (hists t)));
    ]

(* The per-PC table, hottest first by [by], symbolized via [resolve]. *)
let pp_pcs ?(resolve = fun pc -> Printf.sprintf "0x%Lx" pc) ~by ~n ppf t =
  Fmt.pf ppf "@[<v>%-12s %-22s" "pc" "where";
  Array.iter (fun name -> Fmt.pf ppf " %11s" name) class_names;
  Fmt.pf ppf "@,";
  List.iter
    (fun (pc, c) ->
      Fmt.pf ppf "0x%-10Lx %-22s" pc (resolve pc);
      Array.iteri (fun i _ -> Fmt.pf ppf " %11d" c.(i)) class_names;
      Fmt.pf ppf "@,")
    (top_pcs t ~by ~n ());
  Fmt.pf ppf "(%d attributed PCs; sorted by %s)@]" (Hashtbl.length t.by_pc) class_names.(by)

let pp_regions ?(by = c_l1d_miss) ~n ppf t =
  let labeled = t.labels <> [] in
  Fmt.pf ppf "@[<v>%-14s" (Printf.sprintf "region[%dB]" (granule_bytes t));
  if labeled then Fmt.pf ppf " %-18s" "label";
  Array.iter (fun name -> Fmt.pf ppf " %11s" name) class_names;
  Fmt.pf ppf "@,";
  List.iter
    (fun (region, c) ->
      let base = Int64.shift_left region t.granule_bits in
      Fmt.pf ppf "0x%-12Lx" base;
      if labeled then Fmt.pf ppf " %-18s" (label_of t base);
      Array.iteri (fun i _ -> Fmt.pf ppf " %11d" c.(i)) class_names;
      Fmt.pf ppf "@,")
    (top_regions t ~by ~n ());
  Fmt.pf ppf "(%d attributed regions; sorted by %s)@]"
    (Hashtbl.length t.by_region) class_names.(by)

let pp_hists ppf t =
  Fmt.pf ppf "@[<v>%a@,%a@,%a@,%a@]" Hist.pp t.load_size Hist.pp t.store_size Hist.pp t.reuse
    Hist.pp t.cap_len
