(** The property-suite registry the testplan maps testpoints onto.

    Each suite is one named check over a corpus {!Corpus.item}; the
    registry is what {!Testplan.lint} cross-checks the checked-in plan
    against.  Corpus items are schedulable by construction, so every
    suite treats "could not plan" as a failure, never a skip. *)

type outcome =
  | Pass
  | Fail of string  (** why, first violation(s) included *)
  | Skip of string  (** the check does not apply to this item *)

type suite = {
  name : string;
  doc : string;  (** one-line description for reports and lint *)
  check : Corpus.item -> outcome;
}

val all : suite list
(** The registry, in report order:

    - ["schedule_invariants"] — greedy plans the item and the result
      passes both the production validator and the naive independent
      {!Invariants} re-check;
    - ["backend_differential"] — every builtin backend is raced
      ({!Nocplan_core.Backend.race}): every schedule produced passes
      the independent validator and the race winner is never worse
      than greedy;
    - ["fault_monotonicity"] — seeded fault-injection sweep: the rate-0
      point is fault-free with full availability, the injected fault
      count is non-decreasing in the rate (fault sets are nested
      prefixes), and every availability figure is consistent with its
      abandoned count.  Availability itself is deliberately {e not}
      required to be monotone: replanning after an extra early fault can
      dodge a later shared fault, so availability may locally rise with
      the rate (observed on ~0.5% of a 1000-system corpus);
    - ["preemptive_validity"] — session-split planning passes the
      preemptive validator;
    - ["export_roundtrip"] — the SoC survives print/parse exactly;
    - ["generation_determinism"] — re-drawing the item from its seed
      reproduces the same system fingerprint. *)

val names : unit -> string list
val find : string -> suite option
