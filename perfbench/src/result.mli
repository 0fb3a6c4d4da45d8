(** What one benchmark run reports: the correctness tally and the named
    metrics, printed as the single JSON object that ends standard output. *)

val valid_name : string -> bool
(** A metric or workload name: 1 to 64 characters from [A-Za-z0-9_.-],
    starting with a letter or a digit. *)

val valid_unit : string -> bool
(** A unit: 1 to 16 characters from [A-Za-z0-9_/%.-]. *)

(** {1 Correctness tally} *)

type tally

val tally : unit -> tally

val check : tally -> string -> bool -> unit
(** [check t what ok] counts one attempted operation, and one failure when
    [ok] is false; a failure is described on stderr as [what].  Every
    operation the benchmark verifies goes through here, so a mismatch is
    counted, never skipped. *)

val merge : tally list -> tally
(** One tally counting every attempt and failure of the given ones. *)

val attempted : tally -> int
val failed : tally -> int

val error_rate : tally -> float
(** [failed / attempted]; [0.] before any attempt. *)

(** {1 Metrics} *)

type metric = { name : string; value : float; unit_ : string }

val metric : string -> float -> string -> metric
(** @raise Invalid_argument on an invalid name or unit. *)

val to_json : tally -> metric list -> string
(** [{"correct": …, "attempted": …, "failed": …, "metrics": {…}}] on one
    line.  [correct] holds when nothing failed and every value is finite; a
    non-finite value is written as [0] and makes [correct] false.
    @raise Invalid_argument when a name repeats. *)
