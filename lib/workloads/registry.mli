(** The workload registry: every bundled program under its registry name,
    and the one default valuation of their symbols. Every component that
    names workloads or concretizes their symbols starts from here. *)

val all : unit -> (string * Sdfg.Graph.t) list
(** Registry name and freshly built graph of every program, in campaign
    queue order: the NPBench suite, the frontend kernels, then bert,
    cloudsc, fig4 and sddmm. Names are registry keys, not graph names. *)

val find : string -> Sdfg.Graph.t option

val symbols : (string * int) list
(** The default valuation, one entry per symbol name: [N=8 T=3],
    {!Bert.default_symbols} (whose [H] and [P] also size mlp and doitgen),
    {!Cloudsc.default_symbols}, [LROWS=4 NCOLS=6 K=3] and [R=3 Q=4]. It
    binds every free symbol of every program. *)

val with_defines : (string * int) list -> (string * int) list
(** {!symbols} with each given binding replacing that one symbol's default
    (the last binding of a symbol wins, as on the command line); symbols the
    table does not name are appended. *)

val symbols_of : ?defines:(string * int) list -> Sdfg.Graph.t -> (string * int) list
(** [with_defines defines] restricted to the free symbols of the graph. *)
