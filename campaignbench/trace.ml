(* In-memory span recorder for the traced replay.

   A span wraps one call from the benchmark into a layer and is named
   "<library>.<operation>" after the library under lib/ that the call enters.
   Spans are kept in flat arrays and written out once, after the run, as a
   Chrome trace-event file (it opens in Perfetto). Self times are computed
   from host-corrected durations, so a span's self time is its duration
   minus the part of it that nested spans cover. *)

type t = {
  mutable names : string array;  (** span-name table; ids index it *)
  name_ids : (string, int) Hashtbl.t;
  mutable ids : int array;
  mutable t0s : float array;
  mutable t1s : float array;
  mutable parents : int array;  (** enclosing span index, or -1 *)
  mutable owners : int array;  (** instance index the span belongs to *)
  mutable n : int;
  mutable stack : int list;
  mutable instance : int;
}

let create () =
  {
    names = [||];
    name_ids = Hashtbl.create 64;
    ids = Array.make 1024 0;
    t0s = Array.make 1024 0.;
    t1s = Array.make 1024 0.;
    parents = Array.make 1024 0;
    owners = Array.make 1024 0;
    n = 0;
    stack = [];
    instance = -1;
  }

let name_id t name =
  match Hashtbl.find_opt t.name_ids name with
  | Some i -> i
  | None ->
      let i = Array.length t.names in
      t.names <- Array.append t.names [| name |];
      Hashtbl.add t.name_ids name i;
      i

let grow t =
  let g a z = Array.append a (Array.make (Array.length a) z) in
  t.ids <- g t.ids 0;
  t.t0s <- g t.t0s 0.;
  t.t1s <- g t.t1s 0.;
  t.parents <- g t.parents 0;
  t.owners <- g t.owners 0

(** [set_instance t i] tags the spans that follow with instance [i]. *)
let set_instance t i = t.instance <- i

(** [span t name f] runs [f ()] inside a span; the span is closed whether
    [f] returns or raises. *)
let span t name f =
  if t.n = Array.length t.ids then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.ids.(i) <- name_id t name;
  t.parents.(i) <- (match t.stack with p :: _ -> p | [] -> -1);
  t.owners.(i) <- t.instance;
  t.stack <- i :: t.stack;
  t.t0s.(i) <- Host.now ();
  let close () =
    t.t1s.(i) <- Host.now ();
    t.stack <- List.tl t.stack
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

(** Rename the most recently opened span (a leaf that just closed), e.g. to
    mark an execution that ended in a hang. *)
let relabel_last t name = if t.n > 0 then t.ids.(t.n - 1) <- name_id t name

(** Per-name totals over every span: [(name, calls, self_s)] sorted by name,
    with durations measured by [dur ~t0 ~t1] (host-corrected by the caller). *)
let self_times t ~dur =
  let self = Array.make (Array.length t.names) 0. in
  let calls = Array.make (Array.length t.names) 0 in
  for i = 0 to t.n - 1 do
    let d = dur ~t0:t.t0s.(i) ~t1:t.t1s.(i) in
    let id = t.ids.(i) in
    self.(id) <- self.(id) +. d;
    calls.(id) <- calls.(id) + 1;
    let p = t.parents.(i) in
    if p >= 0 then self.(t.ids.(p)) <- self.(t.ids.(p)) -. d
  done;
  Array.to_list (Array.mapi (fun id name -> (name, calls.(id), self.(id))) t.names)
  |> List.sort compare

(** Write the spans as Chrome trace events; [instance_name i] labels each
    span with the instance it ran for. Timestamps are raw microseconds since
    the first span. *)
let write_chrome t ~instance_name path =
  let oc = open_out path in
  let base = if t.n > 0 then t.t0s.(0) else 0. in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for i = 0 to t.n - 1 do
    let name = t.names.(t.ids.(i)) in
    let cat = match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name in
    let inst = if t.owners.(i) < 0 then "" else instance_name t.owners.(i) in
    let str s = Engine.Journal.Json.(to_string (Str s)) in
    Printf.fprintf oc
      "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"instance\":%s}}"
      (if i = 0 then "" else ",\n")
      (str name) (str cat)
      ((t.t0s.(i) -. base) *. 1e6)
      ((t.t1s.(i) -. t.t0s.(i)) *. 1e6)
      (str inst)
  done;
  output_string oc "\n]}\n";
  close_out oc
