(* The benchmark's entry point: run one workload for a set time and
   print its metrics, ending with one JSON line.

     main.exe --workload join_sparse|join_dense|run_sql|serve_zipf
              --seed N --seconds S --trace 0|1

   With --trace 0 the JSON line carries the end-to-end metrics. With
   --trace 1 the run records spans around every layer call, prints a
   per-layer self-time table, writes a Chrome trace under
   e2ebench/out/, and the JSON line carries the per-layer metrics. The
   line holds the metrics this workload measures; run.py checks them
   against BENCHMARK.json, the one list of metrics and units. *)

open E2e
open Util

let workloads =
  [
    ("join_sparse", Join_wl.run ~cells:Join_wl.sparse);
    ("join_dense", Join_wl.run ~cells:Join_wl.dense);
    ("run_sql", Run_sql.run);
    ("serve_zipf", Serve_zipf.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload join_sparse|join_dense|run_sql|serve_zipf --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] (List.tl (Array.to_list Sys.argv)) in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let name = get "workload" and seed = int "seed" and seconds = int "seconds" in
  let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let run = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  if seconds < 1 then usage ();
  let report, window, spans = run ~seed ~seconds:(fi seconds) ~traced in
  List.iter
    (fun (k, v) -> Printf.printf "env %-26s %s\n" k v)
    [
      ("workload", name);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", if traced then "1" else "0");
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("profile", Build_info.profile);
      ("ocaml", Sys.ocaml_version);
    ];
  List.iter (fun (k, v) -> Printf.printf "input %-24s %s\n" k v) report.inputs;
  List.iter (fun (k, n) -> Printf.printf "samples %-22s %d\n" k n) report.samples;
  List.iter (fun (k, v) -> Printf.printf "info %-25s %s\n" k v) report.info;
  Printf.printf "checks %-23s %d attempted, %d failed\n" "outputs" report.attempted report.failed;
  let metrics =
    if traced then begin
      Spans.print_self_table spans;
      List.iter (fun x -> Printf.printf "layer %-34s %14.6f %s\n" x.name x.value x.unit_) report.layers;
      Option.iter
        (fun coll ->
          let dir = Filename.concat "e2ebench" "out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir (Printf.sprintf "%s-%d.trace.json" name seed) in
          Obs.Chrome_trace.write path coll;
          Printf.printf "chrome trace (last pass or round) written to %s\n" path)
        window;
      report.layers
    end
    else begin
      List.iter (fun x -> Printf.printf "e2e %-36s %14.6f %s\n" x.name x.value x.unit_) report.e2e;
      report.e2e
    end
  in
  let number x =
    if Float.is_finite x then Printf.sprintf "%.17g" x else failwith "non-finite metric"
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (report.failed = 0 && report.attempted > 0)
    report.attempted report.failed
    (String.concat ", "
       (List.map
          (fun x -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value) x.unit_)
          metrics))
