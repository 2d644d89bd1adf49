(* The metric catalog and the result line. The catalog is read from
   BENCHMARK.json, the one place the metric names and units are listed. *)

module Json = Engine.Journal.Json

type metric = { name : string; unit_ : string }

let load path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(** The metrics a mode reports: [per_layer] when traced, else [end_to_end]. *)
let catalog bench ~trace =
  List.map
    (fun m -> { name = Json.str (Json.field m "name"); unit_ = Json.str (Json.field m "unit") })
    (Json.arr (Json.field bench (if trace then "per_layer" else "end_to_end")))

(** The last line a run prints. Every metric of the catalog must be
    present, finite, and nothing else may be.
    @raise Invalid_argument otherwise. *)
let result_line cat ~attempted ~failed values =
  let names = List.map (fun x -> x.name) cat in
  List.iter
    (fun (k, v) ->
      if not (List.mem k names) then invalid_arg ("result line: unknown metric " ^ k);
      if not (Float.is_finite v) then invalid_arg ("result line: non-finite " ^ k))
    values;
  let metrics =
    List.map
      (fun x ->
        match List.assoc_opt x.name values with
        | Some v -> (x.name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str x.unit_) ])
        | None -> invalid_arg ("result line: missing metric " ^ x.name))
      cat
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool true);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics);
       ])
