type set_space = { params : string array; tuple : string; dims : string array }

type map_space = {
  params : string array;
  in_tuple : string;
  in_dims : string array;
  out_tuple : string;
  out_dims : string array;
}

let set_space ?(params = []) tuple dims =
  { params = Array.of_list params; tuple; dims = Array.of_list dims }

let map_space ?(params = []) in_tuple in_dims out_tuple out_dims =
  { params = Array.of_list params;
    in_tuple;
    in_dims = Array.of_list in_dims;
    out_tuple;
    out_dims = Array.of_list out_dims
  }

let merge_params p1 p2 =
  let extra =
    Array.to_list p2 |> List.filter (fun p -> not (Array.exists (( = ) p) p1))
  in
  Array.append p1 (Array.of_list extra)

let param_remap ~old_params ~new_params =
  Array.map
    (fun p ->
      let rec find i =
        if i >= Array.length new_params then invalid_arg "param_remap: missing"
        else if new_params.(i) = p then i
        else find (i + 1)
      in
      find 0)
    old_params

let same_set_space a b = a.tuple = b.tuple && Array.length a.dims = Array.length b.dims

let reverse_map (m : map_space) =
  { m with
    in_tuple = m.out_tuple;
    in_dims = m.out_dims;
    out_tuple = m.in_tuple;
    out_dims = m.in_dims
  }
