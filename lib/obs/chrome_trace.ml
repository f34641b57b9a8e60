let track_name = function
  | 0 -> "search"
  | n -> Printf.sprintf "track %d" n

let to_json t =
  let spans = Trace.spans t in
  let t0 =
    List.fold_left
      (fun acc (sp : Trace.span) -> if Int64.compare sp.sp_start acc < 0 then sp.sp_start else acc)
      (match spans with [] -> 0L | sp :: _ -> sp.sp_start)
      spans
  in
  let t_end =
    List.fold_left
      (fun acc (sp : Trace.span) -> if Int64.compare sp.sp_end acc > 0 then sp.sp_end else acc)
      t0 spans
  in
  let us_since ns = Json.Num (Clock.us_of_ns (Int64.sub ns t0)) in
  let meta =
    List.map
      (fun track ->
        Json.Obj
          [
            ("name", Json.Str "thread_name");
            ("ph", Json.Str "M");
            ("pid", Json.int 0);
            ("tid", Json.int track);
            ("args", Json.Obj [ ("name", Json.Str (track_name track)) ]);
          ])
      (Trace.tracks t)
  in
  let events =
    List.map
      (fun (sp : Trace.span) ->
        let still_open = Trace.is_open sp in
        let sp_end = if still_open then t_end else sp.sp_end in
        let args =
          List.concat
            [
              (if sp.sp_group >= 0 then [ ("group", Json.int sp.sp_group) ] else []);
              (if sp.sp_outcome <> "" then [ ("outcome", Json.Str sp.sp_outcome) ] else []);
              (if still_open then [ ("open", Json.Bool true) ] else []);
              List.map (fun (k, v) -> (k, Json.Str v)) sp.sp_args;
            ]
        in
        Json.Obj
          [
            ("name", Json.Str sp.sp_name);
            ("cat", Json.Str sp.sp_cat);
            ("ph", Json.Str "X");
            ("ts", us_since sp.sp_start);
            ("dur", Json.Num (Clock.us_of_ns (Int64.sub sp_end sp.sp_start)));
            ("pid", Json.int 0);
            ("tid", Json.int sp.sp_track);
            ("id", Json.int sp.sp_id);
            ("args", Json.Obj args);
          ])
      spans
  in
  Json.Obj
    [ ("traceEvents", Json.Arr (meta @ events)); ("displayTimeUnit", Json.Str "ms") ]

let write path t = Json.write_file path (to_json t)
