(* Memory-hierarchy profiler (see memprof.mli).

   Reuse distances come from the classic Fenwick-tree formulation: each
   line's most recent access time holds a mark; on a repeat access the
   number of marks after that time is exactly the number of distinct
   lines touched in between. The tree is indexed by access time and
   grown by doubling, rebuilding from the (much smaller) set of live
   marks. *)

let line_bytes = 64

let n_buckets = 32

type row = { accesses : int; reads : int; writes : int; dram : int }

type mrow = {
  mutable m_accesses : int;
  mutable m_reads : int;
  mutable m_writes : int;
  mutable m_dram : int;
}

type t = {
  pcache : Cache.t;
  arrays : (string, mrow) Hashtbl.t;
  stmts : (string, mrow) Hashtbl.t;
  last : (int, int) Hashtbl.t;  (* line -> time of its current mark *)
  mutable bit : int array;  (* Fenwick tree over access times, 1-based *)
  mutable time : int;
  mutable cold : int;
  hist : int array;
}

let create () =
  { pcache = Cache.scaled_xeon ();
    arrays = Hashtbl.create 16;
    stmts = Hashtbl.create 16;
    last = Hashtbl.create 4096;
    bit = Array.make 1024 0;
    time = 0;
    cold = 0;
    hist = Array.make n_buckets 0
  }

(* --- Fenwick tree ---------------------------------------------------- *)

let bit_add t i delta =
  let n = Array.length t.bit in
  let i = ref i in
  while !i < n do
    t.bit.(!i) <- t.bit.(!i) + delta;
    i := !i + (!i land - !i)
  done

let bit_sum t i =
  let acc = ref 0 and i = ref i in
  while !i > 0 do
    acc := !acc + t.bit.(!i);
    i := !i - (!i land - !i)
  done;
  !acc

let grow t needed =
  let n = ref (Array.length t.bit) in
  while !n <= needed do
    n := !n * 2
  done;
  t.bit <- Array.make !n 0;
  Hashtbl.iter (fun _ time -> bit_add t time 1) t.last

(* --- histogram ------------------------------------------------------- *)

let bucket_of d =
  if d < 1 then 0
  else begin
    let rec go i x = if x < 2 || i >= n_buckets - 1 then i else go (i + 1) (x / 2) in
    go 1 d
  end

let bucket_bounds = function
  | 0 -> (0, 0)
  | i -> (1 lsl (i - 1), (1 lsl i) - 1)

let row_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = { m_accesses = 0; m_reads = 0; m_writes = 0; m_dram = 0 } in
      Hashtbl.add tbl key r;
      r

let hook t ~kernel:_ ~stmt ~inst:_ ~array ~cell:_ ~addr ~write =
  (* cache sampling: a DRAM access is visible as a [dram_accesses]
     increment, which keeps per-row DRAM sums exactly equal to the
     cache's own total *)
  let dram_before = Cache.dram_accesses t.pcache in
  let (_ : int) = Cache.access t.pcache ~addr ~write in
  let dram_hit = Cache.dram_accesses t.pcache - dram_before in
  let touch r =
    r.m_accesses <- r.m_accesses + 1;
    if write then r.m_writes <- r.m_writes + 1 else r.m_reads <- r.m_reads + 1;
    r.m_dram <- r.m_dram + dram_hit
  in
  touch (row_of t.stmts stmt);
  touch (row_of t.arrays array);
  (* reuse distance at line granularity *)
  let line = addr / line_bytes in
  let now = t.time + 1 in
  t.time <- now;
  if now >= Array.length t.bit then grow t now;
  (match Hashtbl.find_opt t.last line with
  | Some prev ->
      let d = bit_sum t t.time - bit_sum t prev in
      let b = bucket_of d in
      t.hist.(b) <- t.hist.(b) + 1;
      bit_add t prev (-1)
  | None -> t.cold <- t.cold + 1);
  Hashtbl.replace t.last line now;
  bit_add t now 1

let freeze r =
  { accesses = r.m_accesses; reads = r.m_reads; writes = r.m_writes; dram = r.m_dram }

let rows tbl =
  Hashtbl.fold (fun k r acc -> (k, freeze r) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let per_array t = rows t.arrays

let per_stmt t = rows t.stmts

let cache t = t.pcache

let total_accesses t = t.time

let cold_misses t = t.cold

let distinct_lines t = Hashtbl.length t.last

let reuse_histogram t =
  Array.to_list t.hist
  |> List.mapi (fun i c -> (i, c))
  |> List.filter (fun (_, c) -> c > 0)
