(** IEEE-1500-style test wrapper design for a core.

    When a core is tested over the NoC, the flit width of the network
    plays the role of the TAM width: each flit delivers one bit to each
    of up to [width] wrapper scan chains in parallel.  The wrapper
    design problem is to partition the core's internal scan chains and
    functional terminals into at most [width] balanced wrapper chains;
    the longest wrapper scan-in (scan-out) chain determines the number
    of shift cycles — and hence flits — needed per pattern.

    The partition uses the classical LPT (longest processing time
    first) heuristic of the ITC'02 TAM literature: internal scan chains
    are placed, longest first, on the currently shortest wrapper chain;
    functional input (output) cells are then distributed one by one
    onto the shortest scan-in (scan-out) side. *)

type t = private {
  width : int;  (** number of wrapper chains the design was built for *)
  scan_in_max : int;
      (** length of the longest wrapper scan-in chain: shift-in cycles
          (and stimulus flits) per pattern *)
  scan_out_max : int;
      (** length of the longest wrapper scan-out chain: shift-out
          cycles (and response flits) per pattern *)
}

val design : width:int -> Module_def.t -> t
(** [design ~width m] partitions [m]'s scan chains and terminals into
    at most [width] wrapper chains: the maxima of {!layout}, computed
    without placing cells one by one.

    With no more scan chains than [width], LPT puts every chain on a
    wrapper chain of its own, so the sorted loads are [width - chains]
    zeros followed by the chains in ascending order: one sort of the
    chains, no bin scan.  Only with more chains than [width] does LPT
    run, one bin scan per chain.  Either way the functional cells go on
    by water level over the sorted loads, in closed form per side.

    @raise Invalid_argument if [width < 1]. *)

type layout = {
  in_lengths : int list;
      (** cells per wrapper scan-in chain, one entry per wrapper chain
          (including empty chains), in wrapper-chain order *)
  out_lengths : int list;  (** same for the scan-out side *)
}

val layout : width:int -> Module_def.t -> layout
(** The concrete partition behind {!design}: the per-chain cell counts
    whose maxima are [scan_in_max]/[scan_out_max], placed cell by cell
    with LPT (the reference {!design} is tested against).  Used by the
    bit-level wrapper simulator.
    @raise Invalid_argument if [width < 1]. *)

val pattern_cycles : t -> int
(** Core-side shift cycles consumed per pattern in steady state, with
    the scan-out of pattern [i] overlapped with the scan-in of pattern
    [i+1]: [max scan_in_max scan_out_max + 1] (the [+1] is the
    capture cycle). *)

val test_cycles : t -> patterns:int -> int
(** Total core-side test application time for [patterns] patterns,
    the standard wrapper formula
    [(1 + max si so) * patterns + min si so]. *)

val equal : t -> t -> bool
val pp : t Fmt.t
