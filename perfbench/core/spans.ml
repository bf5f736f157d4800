(* Host-time spans recorded from outside the layers.

   Every call the benchmark makes into a layer goes through [time],
   which reads the monotonic clock and the domain's minor-allocation
   counter around it.  Untraced recorders keep nothing: the caller gets
   the call's duration and allocation and uses them for the end-to-end
   figures.  Traced recorders additionally append a span (name, start,
   stop, parent, request id) to growable in-memory arrays; nothing is
   written until [write_chrome] at the end of the run, so tracing costs
   no I/O while measuring. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  traced : bool;
  mutable names : string array;
  mutable starts : int array;
  mutable stops : int array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable words : float array;
  mutable len : int;
  mutable stack : int list; (* open spans, innermost first *)
}

let create ~traced () =
  {
    traced;
    names = [||];
    starts = [||];
    stops = [||];
    parents = [||];
    reqs = [||];
    words = [||];
    len = 0;
    stack = [];
  }

let length t = t.len

let grow t =
  let cap = max 1024 (2 * Array.length t.starts) in
  let extend a fill = Array.append a (Array.make (cap - Array.length a) fill) in
  t.names <- extend t.names "";
  t.starts <- extend t.starts 0;
  t.stops <- extend t.stops 0;
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs (-1);
  t.words <- extend t.words 0.0

let open_span t name ~req ~start =
  if t.len = Array.length t.starts then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.starts.(id) <- start;
  t.parents.(id) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.reqs.(id) <- req;
  t.len <- id + 1;
  t.stack <- id :: t.stack;
  id

let close_span t id ~stop ~words =
  t.stops.(id) <- stop;
  t.words.(id) <- words;
  match t.stack with _ :: rest -> t.stack <- rest | [] -> ()

(* Run [f] as one call into layer [name]; returns its result, host
   nanoseconds and minor words allocated.  An exception still closes
   the span before it propagates. *)
let time t ?(req = -1) name f =
  let start = now_ns () in
  let id = if t.traced then open_span t name ~req ~start else -1 in
  let w0 = Gc.minor_words () in
  let finish () =
    let words = Gc.minor_words () -. w0 in
    let stop = now_ns () in
    if t.traced then close_span t id ~stop ~words;
    (stop - start, words)
  in
  match f () with
  | r ->
      let ns, words = finish () in
      (r, ns, words)
  | exception e ->
      ignore (finish ());
      raise e

(* Self time of an interval: its length minus the part of it that the
   union of its children's intervals covers.  Children are clipped to
   the parent, and overlapping children are counted once. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a start and b = min b stop in
        if b > a then Some (a, b) else None)
      children
  in
  let covered, _ =
    List.fold_left
      (fun (acc, hi) (a, b) ->
        let a = max a hi in
        if b > a then (acc + (b - a), b) else (acc, hi))
      (0, start) (List.sort compare clipped)
  in
  stop - start - covered

type agg = { count : int; total_ns : int; self_ns : int; words : float }

(* Each span's self time, indexed by span id. *)
let self_times t =
  let kids = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parents.(i) in
    if p >= 0 then kids.(p) <- (t.starts.(i), t.stops.(i)) :: kids.(p)
  done;
  Array.init t.len (fun i -> self_time ~start:t.starts.(i) ~stop:t.stops.(i) kids.(i))

(* Per-name totals over every closed span. *)
let totals t =
  let selfs = self_times t in
  let tbl = Hashtbl.create 16 in
  for i = 0 to t.len - 1 do
    let self = selfs.(i) in
    let a =
      match Hashtbl.find_opt tbl t.names.(i) with
      | Some a -> a
      | None -> { count = 0; total_ns = 0; self_ns = 0; words = 0.0 }
    in
    Hashtbl.replace tbl t.names.(i)
      {
        count = a.count + 1;
        total_ns = a.total_ns + (t.stops.(i) - t.starts.(i));
        self_ns = a.self_ns + self;
        words = a.words +. t.words.(i);
      }
  done;
  tbl

let find totals name =
  match Hashtbl.find_opt totals name with
  | Some a -> a
  | None -> { count = 0; total_ns = 0; self_ns = 0; words = 0.0 }

(* Chrome trace-event JSON (loadable in Perfetto): one thread per
   recorder, complete ("X") events in microseconds from the first span,
   with the span id, parent id and request id as arguments. *)
let write_chrome oc ~meta recorders =
  let t0 =
    List.fold_left
      (fun m (_, t) -> if t.len > 0 then min m t.starts.(0) else m)
      max_int recorders
  in
  output_string oc "{\"traceEvents\":[\n";
  let first = ref true in
  List.iteri
    (fun tid (label, t) ->
      if not !first then output_string oc ",\n";
      first := false;
      Printf.fprintf oc
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}" tid
        label;
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          ",\n\
           {\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"minor_words\":%.0f}}"
          t.names.(i) tid
          (float_of_int (t.starts.(i) - t0) /. 1e3)
          (float_of_int (t.stops.(i) - t.starts.(i)) /. 1e3)
          i t.parents.(i) t.reqs.(i) t.words.(i)
      done)
    recorders;
  output_string oc "\n],\"metadata\":{";
  output_string oc
    (String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%S" k v) meta));
  output_string oc "}}\n"
