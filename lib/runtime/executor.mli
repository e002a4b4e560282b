(** Worker-pool executor over a {!Tile_graph.t}, running tile bodies
    on OCaml 5 domains against a shared {!Interp.memory}.

    Never touches [Obs]: Obs is domain-safe, but one Obs lock taken per
    tile would serialise the workers. All metrics are accumulated in
    per-worker slots and merged after the domains are joined; the
    caller is responsible for reporting them. *)

type violation = {
  v_tile : int;  (** the reading tile *)
  v_writer : int;  (** the incomplete producer tile *)
  v_cell : int;  (** element-granular global cell index *)
}

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
      (** per-tile execution intervals, sorted by start time; collected
          in per-worker slots (never through [Obs]) and merged after the
          join. Worker busy time is exactly these durations summed per
          worker. *)
}

val run :
  jobs:int -> race_check:bool ->
  Prog.t -> Tile_graph.t -> Interp.memory -> metrics
(** Runs [min jobs (n_items g)] workers, so no domain starts without an
    item to take; [m_jobs] reports that count. One worker is
    {!run_sequential} in item-id order. Several workers run
    dependence-aware work stealing: one domain per worker, each popping
    ready items from its own deque and stealing from the others', with
    atomic predecessor counters releasing successors. Item ids are a
    topological order and opaque items are ordered against every other
    item, so no schedule needs a fallback. The first exception a tile
    raises stops every worker; the domains are joined and it is
    re-raised. *)

val run_sequential :
  ?order:int array ->
  ?race_check:bool ->
  Prog.t -> Tile_graph.t -> Interp.memory -> metrics
(** Execute items one by one in [order] (default: item-id order, the
    original sequential schedule). With [race_check], reads of cells
    whose producer tile has not completed are recorded -- executing a
    deliberately wrong [order] is how the race checker is itself
    tested. *)
