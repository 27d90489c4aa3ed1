(** Compile-time lexical scope of the closure compilers ({!Compile},
    {!Batch}): names map to a binding of the compiler's choosing, blocks
    nest, and an inner declaration shadows an outer one until its block
    is popped. Lookups are hashed, so resolving a name costs the same
    however deep the block nesting or however many variables are in
    scope. *)

type 'b t

val create : unit -> 'b t
(** A scope holding one open (outermost) block. *)

val find_opt : 'b t -> string -> 'b option
(** The innermost binding of the name, if any. *)

val push : 'b t -> unit
(** Opens a block. *)

val pop : 'b t -> unit
(** Closes the innermost block, dropping the bindings declared in it. *)

val declare : 'b t -> string -> 'b -> unit
(** Binds the name in the innermost block. *)
