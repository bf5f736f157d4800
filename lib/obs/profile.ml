(* The sampling PC profiler: every [period]-th retired instruction
   records the PC (a flat histogram for hot-loop reports) and the current
   call stack (for collapsed-stack / flamegraph output).

   The call stack is a shadow structure maintained from the instruction
   stream by the probe — push on jal/jalr/cjalr, pop on jr $ra / cjr —
   so it is a heuristic for hand-written assembly that plays games with
   $ra, but exact for the minic code generator's calling convention.
   Sampling on a fixed retirement period keeps the profile bit-for-bit
   deterministic across runs of a deterministic machine. *)

type t = {
  period : int;
  mutable countdown : int;
  (* PCs are native ints (the machine only retires PCs that fit one), so
     a step boxes nothing; [top] and [collapsed] widen them to [int64]. *)
  hist : (int, int ref) Hashtbl.t; (* pc -> samples *)
  stacks : (int list, int ref) Hashtbl.t; (* root-first callee-entry chain -> samples *)
  mutable stack : int list; (* innermost first; entries are callee entry PCs *)
  mutable depth : int;
  mutable total : int;
}

(* Keep the shadow stack bounded: runaway recursion under fault injection
   must not turn the profiler into the memory hog. *)
let max_depth = 256

let create ?(period = 97) () =
  if period <= 0 then invalid_arg "Profile.create: period must be positive";
  {
    period;
    countdown = period;
    hist = Hashtbl.create 1024;
    stacks = Hashtbl.create 256;
    stack = [];
    depth = 0;
    total = 0;
  }

let call t entry =
  if t.depth < max_depth then begin
    t.stack <- entry :: t.stack;
    t.depth <- t.depth + 1
  end

let ret t =
  match t.stack with
  | [] -> () (* return without a tracked call: hand-written entry code *)
  | _ :: rest ->
      t.stack <- rest;
      t.depth <- t.depth - 1

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.add tbl key (ref 1)

(* Called once per retired instruction; records a sample when the period
   elapses.  Returns [true] when this instruction was sampled (the probe
   uses it to keep the [samples] counter in the counter file). *)
let step t pc =
  t.countdown <- t.countdown - 1;
  if t.countdown > 0 then false
  else begin
    t.countdown <- t.period;
    t.total <- t.total + 1;
    bump t.hist pc;
    bump t.stacks (List.rev t.stack);
    true
  end

let total_samples t = t.total

(* Hottest PCs, by sample count then PC (the tie-break keeps reports
   deterministic). *)
let top t ~n =
  Hashtbl.fold (fun pc r acc -> (Int64.of_int pc, !r) :: acc) t.hist []
  |> List.sort (fun (pc1, n1) (pc2, n2) ->
         match compare n2 n1 with 0 -> Int64.compare pc1 pc2 | c -> c)
  |> List.filteri (fun i _ -> i < n)

(* Collapsed-stack (Brendan Gregg flamegraph.pl) lines: semicolon-joined
   frames root-first, a space, and the sample count.  [resolve] names a
   frame from its callee entry PC; the synthetic root frame covers
   samples taken outside any tracked call. *)
let collapsed ?(resolve = fun pc -> Printf.sprintf "0x%Lx" pc) t =
  Hashtbl.fold
    (fun frames r acc ->
      let names = "all" :: List.map (fun pc -> resolve (Int64.of_int pc)) frames in
      (String.concat ";" names ^ " " ^ string_of_int !r) :: acc)
    t.stacks []
  |> List.sort compare

let pct t samples =
  if t.total = 0 then 0.0 else 100.0 *. float_of_int samples /. float_of_int t.total
