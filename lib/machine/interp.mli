(** Reference interpreter for generated loop ASTs: executes statement
    semantics over concrete float arrays, with bounds checking and one
    access {!hook} shared by every trace consumer (the cache model, the
    memory profiler, the shadow validator and the runtime's race
    checker).

    Executing the same program under two different schedules and
    comparing the final arrays is the semantic-equivalence oracle used
    throughout the test suite. *)

type memory

val alloc : Prog.t -> memory

val elem_bytes : int

val read_array : memory -> string -> float array

val fill : memory -> string -> (int array -> float) -> unit
(** Initialize an array: the function receives the multi-dimensional
    index. *)

type stats = {
  mutable instances : int;  (** executed statement instances *)
  mutable ops : int;  (** arithmetic operations *)
  mutable reads : int;
  mutable writes : int;
  per_kernel_ops : (int, int) Hashtbl.t;
}

type hook =
  kernel:int ->
  stmt:string ->
  inst:int array ->
  array:string ->
  cell:int ->
  addr:int ->
  write:bool ->
  unit
(** Called on every array access: the enclosing kernel region (-1
    outside any kernel), the statement instance ([stmt] and its
    iteration vector [inst], fresh per instance and safe to retain),
    the array, the element-flat [cell] index within it, and the byte
    address [addr] in the simulated address space. Reads fire before
    the statement computes; a write fires after its store, so a
    consumer that needs the written value reads it from memory. *)

val run : ?hook:hook -> Prog.t -> Ast.t -> memory -> stats
(** Raises [Invalid_argument] on out-of-bounds accesses, naming the
    array and index. *)

val address_cells : memory -> int
(** Number of element-granular cells spanned by the allocated address
    space; a hook's [addr / elem_bytes] always falls below this. Used
    to size the parallel runtime's per-cell race-checker tables. *)

val tile_runner :
  ?hook:hook ->
  Prog.t ->
  memory ->
  stats * (?kernel:int -> env:(string * int) list -> Ast.t -> unit)
(** A self-contained executor over a shared memory: returns a private
    stats record and a function executing an AST fragment under an
    initial loop-variable environment. Unlike {!run} it never touches
    [Obs]: Obs is domain-safe, but one Obs lock taken per access would
    serialise the workers. So each domain of the parallel runtime
    builds its own and runs tile bodies concurrently; the caller merges
    stats after joining. *)

val arrays_equal : memory -> memory -> string -> bool
(** Same extent and every element equal within a relative tolerance of
    [1e-6]. *)
