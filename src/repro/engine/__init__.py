"""Compiled analysis kernel and incremental re-evaluation.

The optimizer's inner loop is extract -> analyze -> plan -> repeat; this
package makes one iteration cost proportional to what *changed* rather
than to the design:

* :class:`~repro.engine.batched.BatchedNetworkKernel` compiles the
  whole clock network once per topology into flat arrays, so static
  timing, crosstalk, EM and Monte Carlo each run as a handful of
  vectorized sweeps.
* :class:`~repro.engine.incremental.AnalysisEngine` owns the dirty
  tracking: rule changes patch wire columns in place, trims rebuild
  single stages, and each analysis recomputes only when its inputs
  moved.  Monte Carlo keeps its seeded draws frozen across iterations.

The from-scratch analyzers (:mod:`repro.timing`,
:mod:`repro.reliability.em`) stay the reference the engine is checked
against.
"""

from repro.engine.batched import BatchedNetworkKernel
from repro.engine.incremental import AnalysisEngine, FrozenVariation

__all__ = [
    "AnalysisEngine",
    "BatchedNetworkKernel",
    "FrozenVariation",
]
