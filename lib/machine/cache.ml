type level_config = {
  name : string;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  latency : int;
}

type level = {
  config : level_config;
  n_sets : int;
  tags : int array;  (** [set * assoc + way], -1 = invalid *)
  ages : int array;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
}

type t = {
  levels : level array;
  dram_latency : int;
  mutable accesses : int;
  mutable dram : int;
}

type level_stats = { level : string; hits : int; misses : int }

let mk_level config =
  let n_sets = max 1 (config.size_bytes / (config.line_bytes * config.assoc)) in
  { config;
    n_sets;
    tags = Array.make (n_sets * config.assoc) (-1);
    ages = Array.make (n_sets * config.assoc) 0;
    tick = 0;
    hits = 0;
    misses = 0
  }

let create ~levels ~dram_latency =
  let levels = Array.of_list (List.map mk_level levels) in
  { levels; dram_latency; accesses = 0; dram = 0 }

(* true on hit; on miss the line is installed (write-allocate) *)
let probe level ~line =
  let set = line mod level.n_sets in
  let tag = line / level.n_sets in
  let assoc = level.config.assoc in
  let base = set * assoc in
  level.tick <- level.tick + 1;
  let w = ref 0 in
  while !w < assoc && level.tags.(base + !w) <> tag do
    incr w
  done;
  if !w < assoc then begin
    level.hits <- level.hits + 1;
    level.ages.(base + !w) <- level.tick;
    true
  end
  else begin
    level.misses <- level.misses + 1;
    (* evict LRU way *)
    let victim = ref 0 in
    for w = 1 to assoc - 1 do
      if level.ages.(base + w) < level.ages.(base + !victim) then victim := w
    done;
    level.tags.(base + !victim) <- tag;
    level.ages.(base + !victim) <- level.tick;
    false
  end

let access t ~addr ~write =
  ignore write;
  t.accesses <- t.accesses + 1;
  let n = Array.length t.levels in
  let lat = ref 0 and i = ref 0 and hit = ref false in
  while (not !hit) && !i < n do
    let level = t.levels.(!i) in
    lat := !lat + level.config.latency;
    hit := probe level ~line:(addr / level.config.line_bytes);
    incr i
  done;
  if !hit then !lat
  else begin
    t.dram <- t.dram + 1;
    !lat + t.dram_latency
  end

let stats t =
  List.map
    (fun l -> { level = l.config.name; hits = l.hits; misses = l.misses })
    (Array.to_list t.levels)

let dram_accesses t = t.dram

let publish t =
  let add name n = if n > 0 then Obs.add name n in
  add "cache.accesses" t.accesses;
  Array.iter
    (fun l ->
      add ("cache." ^ l.config.name ^ ".hits") l.hits;
      add ("cache." ^ l.config.name ^ ".misses") l.misses)
    t.levels;
  add "cache.dram" t.dram

let reset t =
  Array.iter
    (fun l ->
      Array.fill l.tags 0 (Array.length l.tags) (-1);
      Array.fill l.ages 0 (Array.length l.ages) 0;
      l.tick <- 0;
      l.hits <- 0;
      l.misses <- 0)
    t.levels;
  t.accesses <- 0;
  t.dram <- 0

let xeon_like () =
  create
    ~levels:
      [ { name = "L1"; size_bytes = 32 * 1024; line_bytes = 64; assoc = 8; latency = 4 };
        { name = "L2"; size_bytes = 1024 * 1024; line_bytes = 64; assoc = 16; latency = 14 };
        { name = "L3"; size_bytes = 4 * 1024 * 1024; line_bytes = 64; assoc = 16; latency = 50 }
      ]
    ~dram_latency:200

(* The benchmark images are run at reduced extents (128^2 rather than
   the paper's 2k-6k); the hierarchy is scaled by the same factor so the
   working-set-to-cache ratios, and hence the fusion/tiling trade-offs,
   are preserved. *)
let scaled_xeon () =
  create
    ~levels:
      [ { name = "L1"; size_bytes = 2 * 1024; line_bytes = 64; assoc = 4; latency = 4 };
        { name = "L2"; size_bytes = 16 * 1024; line_bytes = 64; assoc = 8; latency = 14 };
        { name = "L3"; size_bytes = 64 * 1024; line_bytes = 64; assoc = 16; latency = 50 }
      ]
    ~dram_latency:200
