(** The process-wide metrics registry: counters, gauges and log-bucketed
    latency histograms, rendered in the Prometheus text exposition
    format by a self-contained encoder (and parsed back by
    {!Exposition} so tests and CI can reject a malformed scrape).

    The one store of accounting numbers: operational signals — request
    rates, latency quantiles, table-space bytes, journal durability lag
    — and, while profiling is on, the engine's per-predicate profile as
    [xsb_pred_*{pred="name/arity"}] series ({!Obs.Profile}, whose
    [--profile] report is rendered from a scrape of this registry).
    Meant to be scraped continuously (the server's METRICS op).

    The record path is lock-cheap: a counter bump is one atomic add
    behind one boolean read; a histogram observation takes a
    per-histogram mutex around a four-field update. Registration takes
    the registry mutex — register once, keep the handle. *)

type labels = (string * string) list
(** Label pairs; stored sorted by name, so two label sets are the same
    series iff they are equal as sorted lists. *)

type t
(** A registry: an ordered collection of metric families. *)

val create : unit -> t

val enabled : t -> bool

val set_enabled : t -> bool -> unit
(** A disabled registry turns every record path into a boolean read
    (used to measure instrumentation overhead); scrapes still render
    whatever was recorded. *)

(** {1 Instruments} *)

module Histogram : sig
  type t

  val default_buckets : float array
  (** Log-spaced upper bounds, factor 2 from 1 microsecond to about 67
      seconds (in seconds) — every latency this server can produce
      lands inside with at most 2x relative quantile error. *)

  val create : ?buckets:float array -> unit -> t
  (** A standalone histogram outside any registry (bench percentile
      computations share quantile math with the server this way). *)

  val observe : t -> float -> unit

  val count : t -> int
  val sum : t -> float
  (** Exact: the histogram keeps the exact observation count and sum
      alongside the bucketed distribution. *)

  val min_value : t -> float
  val max_value : t -> float
  (** Exact observed extremes; [0.0] when empty. *)

  val cumulative : t -> (float * int) list
  (** Cumulative [(upper_bound, count)] rows, the [+Inf] bucket last. *)

  val quantile : t -> float -> float
  (** [quantile h 0.95]: linear interpolation inside the target bucket
      (the estimate [histogram_quantile] computes), clamped to the
      exact observed min/max. [0.0] when empty. *)

  val percentile : t -> float -> float
  (** [percentile h 95.0 = quantile h 0.95]. *)
end

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Raises [Invalid_argument] on a negative increment — counters are
      monotone by contract. *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val incr : t -> unit
  val decr : t -> unit

  val set_max : t -> float -> unit
  (** Raise the gauge to [v] if [v] is larger (a compare-and-set loop,
      so writers on different threads never lose the maximum). *)

  val value : t -> float
end

(** {1 Registration}

    Find-or-create: registering the same name (and label set) again
    returns the existing instrument; re-registering a name as a
    different kind raises [Invalid_argument]. *)

val counter : t -> ?labels:labels -> help:string -> string -> Counter.t
val gauge : t -> ?labels:labels -> help:string -> string -> Gauge.t

val gauge_fn : t -> ?labels:labels -> help:string -> string -> (unit -> float) -> unit
(** A gauge sampled at scrape time — the cheapest way to expose a value
    the instrumented code already maintains (queue depth, table-space
    bytes). The callback must not raise; if it does, the sample renders
    as NaN. *)

val histogram :
  t -> ?buckets:float array -> ?labels:labels -> help:string -> string -> Histogram.t

(** {1 Exposition} *)

val to_text : t -> string
(** The Prometheus text exposition: per family one [# HELP] and one
    [# TYPE] line followed by its samples; histograms render cumulative
    [_bucket{le=...}] series plus [_sum] and [_count]. *)

module Exposition : sig
  type sample = { s_name : string; s_labels : labels; s_value : float }

  val validate : string -> ((string * sample) list, string) result
  (** Parse an exposition back and verify its shape: names and labels
      well-formed, HELP/TYPE unique and declared for every sample, no
      duplicate series, counters finite and non-negative, histogram
      buckets in [le] order with cumulative counts ending at a [+Inf]
      bucket equal to [_count], and a [_sum] present. Returns the
      samples as [(family_name, sample)] pairs. *)

  val find : ?labels:labels -> (string * sample) list -> string -> float option
  (** The value of one series (exact label match). *)

  val sum_family : (string * sample) list -> string -> float
  (** Sum of every series of a family (e.g. a labeled counter total). *)
end
