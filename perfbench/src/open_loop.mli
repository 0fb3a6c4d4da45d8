(** Single-threaded open-loop request generator.

    Requests have fixed due times.  Request [i] starts at
    [max due.(i) (finish of request i-1)] and its latency is measured from
    [due.(i)], so the queueing a slow request imposes on the ones behind it
    counts against them — no second thread is needed to see it.  The clock is
    injected so the timing rule can be tested on a fake clock. *)

type clock = {
  now : unit -> float;  (** seconds, monotone *)
  sleep_until : float -> unit;  (** returns at or after the given time *)
}

val wall_clock : clock
(** [Unix.gettimeofday]; sleeps with [Unix.sleepf] until shortly before the
    deadline and spins the rest, to keep the generator's lateness small. *)

type sample = {
  latency : float;  (** finish minus due *)
  service : float;  (** finish minus start *)
  wait : float;  (** start minus due: queueing plus generator lateness *)
  overshoot : float option;
      (** start minus due for a request that found the system idle — how late
          the generator itself ran; [None] when the request had queued *)
}

val run : clock -> due:float array -> serve:(int -> unit) -> sample array
(** Serves requests [0 .. n-1] in order; [due] is in the clock's time base
    and must be non-decreasing. *)
