let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let gcd_array a = Array.fold_left gcd 0 a

let floor_div a b =
  assert (b > 0);
  if a >= 0 then a / b else -(((-a) + b - 1) / b)

let ceil_div a b =
  assert (b > 0);
  if a >= 0 then (a + b - 1) / b else -((-a) / b)

let sub u v = Array.mapi (fun i x -> x - v.(i)) u

let scale k u = Array.map (fun x -> k * x) u

let combine a u b v = Array.mapi (fun i x -> (a * x) + (b * v.(i))) u

let insert_zeros u ~pos ~count =
  let n = Array.length u in
  assert (pos >= 0 && pos <= n);
  Array.init (n + count) (fun i ->
      if i < pos then u.(i) else if i < pos + count then 0 else u.(i - count))

let remove u ~pos ~count =
  let n = Array.length u in
  assert (pos >= 0 && pos + count <= n);
  Array.init (n - count) (fun i -> if i < pos then u.(i) else u.(i + count))
