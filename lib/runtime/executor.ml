(* Worker-pool executor over a tile graph.

   Three modes:
   - [Seq]: deterministic sequential execution in item-id order on the
     calling domain (the reference against which speedups are
     measured, and the fallback for [jobs = 1]);
   - [Wavefront]: conservative barrier execution -- items are grouped
     into longest-path levels and each level runs as a parallel-for
     with a full barrier between levels;
   - [Dag]: dependence-aware work stealing -- each domain owns a deque
     of ready items, executes from its own bottom and steals from
     other deques' tops, decrementing atomic predecessor counters to
     release successors.

   The executor keeps [Obs] off its hot paths: although Obs is now
   mutex-guarded (domain-safe), taking a global lock per tile would
   serialise the workers, so every metric is accumulated in per-worker
   slots and merged after the domains are joined. *)

type mode = Seq | Wavefront | Dag

let mode_name = function Seq -> "seq" | Wavefront -> "wavefront" | Dag -> "dag"

type config = { jobs : int; mode : mode; race_check : bool }

type violation = { v_tile : int; v_writer : int; v_cell : int }

type timeline_entry = {
  tl_tile : int;
  tl_worker : int;
  tl_start_s : float;  (** relative to the executor invocation *)
  tl_dur_s : float;
}

type metrics = {
  m_mode : mode;
  m_jobs : int;
  m_tiles : int;
  m_steals : int;
  m_barrier_waits : int;
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

let race_observer race cur record ~kernel:_ ~stmt:_ ~addr ~write =
  let cell = addr / Interp.elem_bytes in
  let me = !cur in
  if write then begin
    (* write-side: a cell already read by an id-later tile means that
       reader should have seen this value -- its RAW dependence was
       executed backwards. Any real cell-level RAW implies a tile-graph
       edge ordering the writer first, so this never fires on a valid
       topological order. *)
    let r = race.reader.(cell) in
    if r > me && r <> me then record { v_tile = r; v_writer = me; v_cell = cell };
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

let finish_metrics ~mode ~jobs ~steals ~barrier_waits ~busy ~tiles ~insts
    ~violations ~timelines =
  { m_mode = mode;
    m_jobs = jobs;
    m_tiles = Array.fold_left ( + ) 0 tiles;
    m_steals = Array.fold_left ( + ) 0 steals;
    m_barrier_waits = barrier_waits;
    m_busy_s = busy;
    m_instances = Array.fold_left ( + ) 0 insts;
    m_violations = List.concat (Array.to_list violations);
    m_timeline =
      List.concat (Array.to_list (Array.map List.rev timelines))
      |> List.sort (fun a b -> compare a.tl_start_s b.tl_start_s)
  }

let run_sequential ?order ?(race_check = false) (p : Prog.t)
    (g : Tile_graph.t) mem =
  let n = Tile_graph.n_items g in
  let order = match order with Some o -> o | None -> Array.init n Fun.id in
  let race = if race_check then Some (make_race n mem) else None in
  let viols = ref [] in
  let cur = ref (-1) in
  let observer =
    Option.map
      (fun r ->
        race_observer r cur (fun v ->
            if List.length !viols < max_recorded_violations then
              viols := v :: !viols))
      race
  in
  let stats, exec = Interp.tile_runner ?observer p mem in
  let busy = Array.make 1 0.0 in
  let timeline = ref [] in
  let run0 = Unix.gettimeofday () in
  Array.iter
    (fun i ->
      let it = g.Tile_graph.items.(i) in
      let t0 = Unix.gettimeofday () in
      cur := i;
      exec ~kernel:it.Tile_graph.kernel ~env:it.Tile_graph.env
        it.Tile_graph.body;
      (match race with
      | Some r -> Atomic.set r.completed.(i) true
      | None -> ());
      let dur = Unix.gettimeofday () -. t0 in
      busy.(0) <- busy.(0) +. dur;
      timeline :=
        { tl_tile = i; tl_worker = 0; tl_start_s = t0 -. run0; tl_dur_s = dur }
        :: !timeline)
    order;
  finish_metrics ~mode:Seq ~jobs:1 ~steals:[| 0 |] ~barrier_waits:0 ~busy
    ~tiles:[| n |] ~insts:[| stats.Interp.instances |]
    ~violations:[| List.rev !viols |] ~timelines:[| !timeline |]

let run_dag ~jobs ~race_check (p : Prog.t) (g : Tile_graph.t) mem =
  let n = Tile_graph.n_items g in
  let preds = Array.map Atomic.make g.Tile_graph.preds in
  let pending = Atomic.make n in
  let deques = Array.init jobs (fun _ -> Deque.create ()) in
  let seeded = ref 0 in
  Array.iteri
    (fun i c ->
      if c = 0 then begin
        Deque.push deques.(!seeded mod jobs) i;
        incr seeded
      end)
    g.Tile_graph.preds;
  let steals = Array.make jobs 0 in
  let busy = Array.make jobs 0.0 in
  let tiles = Array.make jobs 0 in
  let insts = Array.make jobs 0 in
  let violations = Array.make jobs [] in
  let timelines = Array.make jobs [] in
  let race = if race_check then Some (make_race n mem) else None in
  let run0 = Unix.gettimeofday () in
  let worker wid () =
    let cur = ref (-1) in
    let observer =
      Option.map
        (fun r ->
          race_observer r cur (fun v ->
              if List.length violations.(wid) < max_recorded_violations then
                violations.(wid) <- v :: violations.(wid)))
        race
    in
    let stats, exec = Interp.tile_runner ?observer p mem in
    let find () =
      match Deque.pop deques.(wid) with
      | Some i -> Some i
      | None ->
          let rec try_steal k =
            if k >= jobs then None
            else
              match Deque.steal deques.((wid + k) mod jobs) with
              | Some i ->
                  steals.(wid) <- steals.(wid) + 1;
                  Some i
              | None -> try_steal (k + 1)
          in
          try_steal 1
    in
    let idle = ref 0 in
    let rec loop () =
      match find () with
      | Some i ->
          idle := 0;
          let it = g.Tile_graph.items.(i) in
          let t0 = Unix.gettimeofday () in
          cur := i;
          exec ~kernel:it.Tile_graph.kernel ~env:it.Tile_graph.env
            it.Tile_graph.body;
          (match race with
          | Some r -> Atomic.set r.completed.(i) true
          | None -> ());
          let dur = Unix.gettimeofday () -. t0 in
          busy.(wid) <- busy.(wid) +. dur;
          timelines.(wid) <-
            { tl_tile = i; tl_worker = wid; tl_start_s = t0 -. run0; tl_dur_s = dur }
            :: timelines.(wid);
          tiles.(wid) <- tiles.(wid) + 1;
          List.iter
            (fun j ->
              if Atomic.fetch_and_add preds.(j) (-1) = 1 then
                Deque.push deques.(wid) j)
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
    loop ();
    insts.(wid) <- stats.Interp.instances;
    violations.(wid) <- List.rev violations.(wid)
  in
  let doms = Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join doms;
  finish_metrics ~mode:Dag ~jobs ~steals ~barrier_waits:0 ~busy ~tiles ~insts
    ~violations ~timelines

let run_wavefront ~jobs ~race_check (p : Prog.t) (g : Tile_graph.t) mem =
  let n = Tile_graph.n_items g in
  let level = Tile_graph.levels g in
  let n_levels = 1 + Array.fold_left max (-1) level in
  let buckets = Array.make (max 1 n_levels) [] in
  for i = n - 1 downto 0 do
    buckets.(level.(i)) <- i :: buckets.(level.(i))
  done;
  let steals = Array.make jobs 0 in
  let busy = Array.make jobs 0.0 in
  let tiles = Array.make jobs 0 in
  let insts = Array.make jobs 0 in
  let violations = Array.make jobs [] in
  let timelines = Array.make jobs [] in
  let race = if race_check then Some (make_race n mem) else None in
  let run0 = Unix.gettimeofday () in
  let run_level items =
    let items = Array.of_list items in
    let next = Atomic.make 0 in
    let worker wid () =
      let cur = ref (-1) in
      let observer =
        Option.map
          (fun r ->
            race_observer r cur (fun v ->
                if List.length violations.(wid) < max_recorded_violations then
                  violations.(wid) <- v :: violations.(wid)))
          race
      in
      let stats, exec = Interp.tile_runner ?observer p mem in
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length items then begin
          let i = items.(k) in
          let it = g.Tile_graph.items.(i) in
          let t0 = Unix.gettimeofday () in
          cur := i;
          exec ~kernel:it.Tile_graph.kernel ~env:it.Tile_graph.env
            it.Tile_graph.body;
          (match race with
          | Some r -> Atomic.set r.completed.(i) true
          | None -> ());
          let dur = Unix.gettimeofday () -. t0 in
          busy.(wid) <- busy.(wid) +. dur;
          timelines.(wid) <-
            { tl_tile = i; tl_worker = wid; tl_start_s = t0 -. run0; tl_dur_s = dur }
            :: timelines.(wid);
          tiles.(wid) <- tiles.(wid) + 1;
          loop ()
        end
      in
      loop ();
      insts.(wid) <- insts.(wid) + stats.Interp.instances
    in
    let w = min jobs (max 1 (Array.length items)) in
    let doms = Array.init (w - 1) (fun k -> Domain.spawn (worker (k + 1))) in
    worker 0 ();
    Array.iter Domain.join doms
  in
  Array.iter (fun b -> if b <> [] then run_level b) buckets;
  let violations = Array.map List.rev violations in
  (* every worker waits at the barrier closing each level *)
  finish_metrics ~mode:Wavefront ~jobs ~steals
    ~barrier_waits:(n_levels * jobs) ~busy ~tiles ~insts ~violations
    ~timelines

let run (cfg : config) (p : Prog.t) (g : Tile_graph.t) mem =
  let jobs = max 1 cfg.jobs in
  match cfg.mode with
  | Seq -> run_sequential ~race_check:cfg.race_check p g mem
  | Wavefront -> run_wavefront ~jobs ~race_check:cfg.race_check p g mem
  | Dag -> run_dag ~jobs ~race_check:cfg.race_check p g mem
