module Metric = Dtr_obs.Metric

let enabled () = true

(* Effectiveness counters, mirrored into the observability report (additive
   dtr-obs-report/2 keys) when metrics are on.  The per-run ground truth
   lives in Local_search/Phase2/warm results — these are the profiler-free
   global view dtr-opt --verbose and the daemon's stats event print. *)
let c_aborts = Metric.Counter.create "prune.aborts"
let c_skips = Metric.Counter.create "prune.skips"
let c_cache_hits = Metric.Counter.create "prune.cache_hits"
let c_cache_misses = Metric.Counter.create "prune.cache_misses"

let note_abort () = if Metric.enabled () then Metric.Counter.incr c_aborts
let note_skip () = if Metric.enabled () then Metric.Counter.incr c_skips
let note_cache_hit () = if Metric.enabled () then Metric.Counter.incr c_cache_hits

let note_cache_miss () =
  if Metric.enabled () then Metric.Counter.incr c_cache_misses
