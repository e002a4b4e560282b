(* Worker-pool executor over a tile graph.

   One worker runs the items in id order on the calling domain (the
   reference against which speedups are measured). Several workers
   run dependence-aware work stealing: each domain owns a deque of
   ready items, executes from its own bottom and steals from other
   deques' tops, decrementing atomic predecessor counters to release
   successors. Item ids are a topological order and opaque items keep
   their edges to every other item, so neither path needs a fallback.

   The executor keeps [Obs] off its hot paths: although Obs is now
   mutex-guarded (domain-safe), taking a global lock per tile would
   serialise the workers, so every metric is accumulated in per-worker
   slots and merged after the domains are joined. *)

type violation = { v_tile : int; v_writer : int; v_cell : int }

type timeline_entry = {
  tl_tile : int;
  tl_worker : int;
  tl_start_s : float;  (** relative to the executor invocation *)
  tl_dur_s : float;
}

type metrics = {
  m_jobs : int;
  m_tiles : int;
  m_steals : int;
  m_busy_s : float array;  (** per-worker busy wall time, seconds *)
  m_instances : int;  (** executed statement instances, summed *)
  m_violations : violation list;
  m_timeline : timeline_entry list;
      (** one entry per executed tile, sorted by start time; busy time
          is the same per-tile intervals summed per worker *)
}

(* ------------------------------------------------------------------ *)
(* Hand-rolled work-stealing deque: a mutex-protected circular buffer
   of item ids. The owner pushes and pops at the bottom (LIFO, for
   locality); thieves take from the top (FIFO, oldest work first). *)
module Deque = struct
  type t = {
    mutable buf : int array;
    mutable top : int;  (** next steal position *)
    mutable bot : int;  (** next push position *)
    lock : Mutex.t;
  }

  let create () = { buf = Array.make 64 (-1); top = 0; bot = 0; lock = Mutex.create () }

  let size d = d.bot - d.top

  let grow d =
    let len = Array.length d.buf in
    let nbuf = Array.make (2 * len) (-1) in
    for i = d.top to d.bot - 1 do
      nbuf.(i mod (2 * len)) <- d.buf.(i mod len)
    done;
    d.buf <- nbuf

  let push d v =
    Mutex.lock d.lock;
    if size d = Array.length d.buf then grow d;
    d.buf.(d.bot mod Array.length d.buf) <- v;
    d.bot <- d.bot + 1;
    Mutex.unlock d.lock

  let pop d =
    Mutex.lock d.lock;
    let r =
      if size d > 0 then begin
        d.bot <- d.bot - 1;
        Some d.buf.(d.bot mod Array.length d.buf)
      end
      else None
    in
    Mutex.unlock d.lock;
    r

  let steal d =
    Mutex.lock d.lock;
    let r =
      if size d > 0 then begin
        let v = d.buf.(d.top mod Array.length d.buf) in
        d.top <- d.top + 1;
        Some v
      end
      else None
    in
    Mutex.unlock d.lock;
    r
end

(* ------------------------------------------------------------------ *)
(* Debug-mode race checker: records the last writer tile of every
   memory cell; a read of a cell whose writer is a different tile that
   has not completed is a RAW violation -- the dependence edge that
   should have ordered the two tiles is missing. Writes by several
   tiles to the same cell are legal here (idempotent halo
   recomputation), so only reads are checked. *)
type race_state = {
  writer : int array;  (** per cell, last writer tile id, -1 = input *)
  reader : int array;  (** per cell, last reader tile id, -1 = none *)
  completed : bool Atomic.t array;  (** per tile *)
}

let max_recorded_violations = 1000

let make_race n_tiles mem =
  let cells = max 1 (Interp.address_cells mem) in
  { writer = Array.make cells (-1);
    reader = Array.make cells (-1);
    completed = Array.init (max 1 n_tiles) (fun _ -> Atomic.make false)
  }

let race_hook race cur violations ~kernel:_ ~stmt:_ ~inst:_ ~array:_ ~cell:_
    ~addr ~write =
  let cell = addr / Interp.elem_bytes in
  let me = !cur in
  let record v =
    if List.length !violations < max_recorded_violations then
      violations := v :: !violations
  in
  if write then begin
    (* write-side: a cell already read by an id-later tile means that
       reader should have seen this value -- its RAW dependence was
       executed backwards. Any real cell-level RAW implies a tile-graph
       edge ordering the writer first, so this never fires on a valid
       topological order. *)
    let r = race.reader.(cell) in
    if r > me then record { v_tile = r; v_writer = me; v_cell = cell };
    race.writer.(cell) <- me
  end
  else begin
    (* read-side: the recorded producer has started but not completed *)
    let w = race.writer.(cell) in
    if w >= 0 && w <> me && not (Atomic.get race.completed.(w)) then
      record { v_tile = me; v_writer = w; v_cell = cell };
    race.reader.(cell) <- me
  end

(* ------------------------------------------------------------------ *)
(* Per-worker state: a private interpreter over the shared memory and
   the metric slots only this worker writes. *)
type worker = {
  wid : int;
  exec : ?kernel:int -> env:(string * int) list -> Ast.t -> unit;
  stats : Interp.stats;
  cur : int ref;  (** the tile being executed *)
  violations : violation list ref;  (** newest first *)
  mutable busy : float;
  mutable tiles : int;
  mutable steals : int;
  mutable timeline : timeline_entry list;  (** newest first *)
}

let make_worker ~race (p : Prog.t) mem wid =
  let cur = ref (-1) and violations = ref [] in
  let hook = Option.map (fun r -> race_hook r cur violations) race in
  let stats, exec = Interp.tile_runner ?hook p mem in
  { wid; exec; stats; cur; violations; busy = 0.0; tiles = 0; steals = 0;
    timeline = [] }

(* Execute one item on worker [w]: tile timing, timeline entry, busy
   time and the race checker's completion flag. *)
let exec_item ~(g : Tile_graph.t) ~race ~run0 w i =
  let it = g.Tile_graph.items.(i) in
  let t0 = Unix.gettimeofday () in
  w.cur := i;
  w.exec ~kernel:it.Tile_graph.kernel ~env:it.Tile_graph.env it.Tile_graph.body;
  Option.iter (fun r -> Atomic.set r.completed.(i) true) race;
  let dur = Unix.gettimeofday () -. t0 in
  w.busy <- w.busy +. dur;
  w.tiles <- w.tiles + 1;
  w.timeline <-
    { tl_tile = i; tl_worker = w.wid; tl_start_s = t0 -. run0; tl_dur_s = dur }
    :: w.timeline

let metrics_of workers =
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let concat f = List.concat_map (fun w -> List.rev (f w)) (Array.to_list workers) in
  { m_jobs = Array.length workers;
    m_tiles = sum (fun w -> w.tiles);
    m_steals = sum (fun w -> w.steals);
    m_busy_s = Array.map (fun w -> w.busy) workers;
    m_instances = sum (fun w -> w.stats.Interp.instances);
    m_violations = concat (fun w -> !(w.violations));
    m_timeline =
      List.stable_sort
        (fun a b -> compare a.tl_start_s b.tl_start_s)
        (concat (fun w -> w.timeline))
  }

let run_sequential ?order ?(race_check = false) (p : Prog.t)
    (g : Tile_graph.t) mem =
  let n = Tile_graph.n_items g in
  let order = match order with Some o -> o | None -> Array.init n Fun.id in
  let race = if race_check then Some (make_race n mem) else None in
  let w = make_worker ~race p mem 0 in
  let run0 = Unix.gettimeofday () in
  Array.iter (exec_item ~g ~race ~run0 w) order;
  metrics_of [| w |]

let run_stealing ~jobs ~race_check (p : Prog.t) (g : Tile_graph.t) mem =
  let n = Tile_graph.n_items g in
  let preds = Array.map Atomic.make g.Tile_graph.preds in
  let pending = Atomic.make n in
  let failed = Atomic.make None in
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
  let seeded = ref 0 in
  Array.iteri
    (fun i c ->
      if c = 0 then begin
        Deque.push deques.(!seeded mod jobs) i;
        incr seeded
      end)
    g.Tile_graph.preds;
  let race = if race_check then Some (make_race n mem) else None in
  let workers = Array.init jobs (make_worker ~race p mem) in
  let run0 = Unix.gettimeofday () in
  let work w () =
    let find () =
      match Deque.pop deques.(w.wid) with
      | Some i -> Some i
      | None ->
          let rec try_steal k =
            if k >= jobs then None
            else
              match Deque.steal deques.((w.wid + k) mod jobs) with
              | Some i ->
                  w.steals <- w.steals + 1;
                  Some i
              | None -> try_steal (k + 1)
          in
          try_steal 1
    in
    let idle = ref 0 in
    let rec loop () =
      if Option.is_none (Atomic.get failed) then
        match find () with
        | Some i ->
            idle := 0;
            exec_item ~g ~race ~run0 w i;
            List.iter
              (fun j ->
                if Atomic.fetch_and_add preds.(j) (-1) = 1 then
                  Deque.push deques.(w.wid) j)
              g.Tile_graph.succs.(i);
            ignore (Atomic.fetch_and_add pending (-1));
            loop ()
        | None ->
            if Atomic.get pending > 0 then begin
              (* back off instead of spinning: on machines with fewer
                 cores than workers a hot spin loop starves the domains
                 that still hold work *)
              idle := !idle + 1;
              if !idle < 32 then Domain.cpu_relax ()
              else Unix.sleepf 0.0002;
              loop ()
            end
    in
    (* a raising tile never releases its successors, so [pending] would
       stay positive forever: the first exception stops every worker *)
    try loop ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failed None (Some (e, bt)))
  in
  let doms =
    Array.init (jobs - 1) (fun k -> Domain.spawn (work workers.(k + 1)))
  in
  work workers.(0) ();
  Array.iter Domain.join doms;
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    (Atomic.get failed);
  metrics_of workers

let run ~jobs ~race_check (p : Prog.t) (g : Tile_graph.t) mem =
  let jobs = min jobs (Tile_graph.n_items g) in
  if jobs <= 1 then run_sequential ~race_check p g mem
  else run_stealing ~jobs ~race_check p g mem
