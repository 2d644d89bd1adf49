(** Catalog of built-in transformations.

    [as_shipped] is the set used for the campaign experiments (Sec. 6.3/6.4):
    it contains each transformation in the variant DaCe shipped it — i.e.
    including the seven bugs of Table 2. [all_correct] is the fixed set. *)

val as_shipped : unit -> Xform.t list
val all_correct : unit -> Xform.t list

(** [as_shipped] then [all_correct], each name once (the shipped variant
    wins): every registered transformation, as [lint] audits them. *)
val all : unit -> Xform.t list

(** Look a transformation up by name in a list. *)
val by_name : Xform.t list -> string -> Xform.t option
