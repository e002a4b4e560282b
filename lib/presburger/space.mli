(** Named spaces for sets and maps.

    Column layout of the underlying constraints:
    - set:  [params; dims]
    - map:  [params; in_dims; out_dims]

    Operations are positional; names are used for printing, parsing and
    parameter alignment (parameters are matched by name, dimensions by
    position). *)

type set_space = { params : string array; tuple : string; dims : string array }

type map_space = {
  params : string array;
  in_tuple : string;
  in_dims : string array;
  out_tuple : string;
  out_dims : string array;
}

val set_space : ?params:string list -> string -> string list -> set_space

val map_space :
  ?params:string list -> string -> string list -> string -> string list -> map_space

val merge_params : string array -> string array -> string array
(** Stable union of two parameter lists. *)

val param_remap : old_params:string array -> new_params:string array -> int array
(** For each old parameter index, its index in [new_params]. *)

val same_set_space : set_space -> set_space -> bool
(** Same tuple name and dimension count (dimension names are ignored). *)

val reverse_map : map_space -> map_space
