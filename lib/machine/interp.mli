(** Reference interpreter for generated loop ASTs: executes statement
    semantics over concrete float arrays, with bounds checking and one
    access {!hook} shared by every trace consumer (the cache model, the
    memory profiler, the shadow validator and the runtime's race
    checker).

    An AST is staged before it runs: compiled once into a tree of
    closures in which loop variables are slots of an int array, each
    call is resolved to its statement and each access to its array
    store, and each index is an affine form with the parameters folded
    in. The staged code is what {!run} and {!tile_runner} execute. A
    name that does not resolve (an unbound loop variable, an unknown
    statement or array, an index arity that does not match its array)
    raises [Invalid_argument] when the instance that uses it executes,
    never while staging: code that never runs raises nothing.

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
    address [addr] in the simulated address space. Reads fire in the
    order of the statement's [reads], before it computes; the write
    fires after its store, so a consumer that needs the written value
    reads it from memory. *)

val run : ?hook:hook -> Prog.t -> Ast.t -> memory -> stats
(** Stage the AST and run it once. Raises [Invalid_argument] when an
    instance executes an out-of-bounds access
    (["Interp: out of bounds on A dim d: v (extent e)"]), an index list
    of the wrong arity (["Interp: arity mismatch on A"]), an unknown
    statement (["Interp: unknown statement S"]) or an unbound loop
    variable (["eval_expr: unbound loop var v"]). [per_kernel_ops] has
    an entry only for kernels that ran an instance. *)

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
    initial loop-variable environment (innermost binding first). The
    function stages a fragment the first time it sees it with those
    variable names, keyed on the fragment's physical identity, and
    reuses the staged code for every later call: the tile items of one
    graph share their body, so a worker stages each body once. Errors
    raise as in {!run}, when the offending instance executes.

    Unlike {!run} it never touches [Obs]: Obs is domain-safe, but one
    Obs lock taken per access would serialise the workers. So each
    domain of the parallel runtime builds its own runner (runners
    share no staged state) and runs tile bodies concurrently; the
    caller merges stats after joining. *)

val arrays_equal : memory -> memory -> string -> bool
(** Same extent and every element equal within a relative tolerance of
    [1e-6]. *)
