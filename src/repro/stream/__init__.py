"""repro.stream — online incremental anomaly detection.

The six checkers, the divergence-window tracker and the metric
evaluator are incremental by construction (:mod:`repro.core.stream`);
this package feeds them *as operations happen*, with bounded memory
and measured state, and distills each closed test into its record
(``analyze_trace`` is the same engine run over a finished trace).

Layout:

* :mod:`repro.stream.engine` — the fan-out hub and telemetry.
* :mod:`repro.stream.ingest` — trace replay and the live watermark
  sequencer (``OperationObserver`` implementation) behind
  ``stream --from-trace`` / ``--follow``.
* :mod:`repro.stream.parity` — the record diff the feed-parity checks
  print.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    "repro.core.stream": ("TestMeta", "StreamOp", "stream_order"),
    "repro.obs.events": ("WindowEvent",),
    ".engine": ("DEFAULT_HORIZON", "Emission", "StreamEngine"),
    ".ingest": ("OpIngest", "replay_trace"),
    ".parity": ("record_mismatches",),
})
