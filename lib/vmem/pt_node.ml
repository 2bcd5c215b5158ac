(* Page-table nodes, described in {!Page_table}, which alone makes and
   reads them. The type sits below {!Frame} so that a machine's stack
   of released inner arrays ({!Frame.spares}) can name it. *)
type t =
  | Leaf of { mutable refs : int; mutable clean : bool; entries : int array }
  | Inner of { mutable refs : int; children : t option array }
