(* The host fingerprint printed with every result, so that figures from
   another host (other core count, compiler or word size) are
   recognisably incomparable, and the process-wide GC figures. *)

let fingerprint () =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("word_size", string_of_int Sys.word_size);
    ("flambda", string_of_bool Build_info.flambda);
  ]

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

type gc = { minor : int; major : int }

let gc () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections; major = s.Gc.major_collections }
