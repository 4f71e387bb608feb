"""repro.stream — online incremental anomaly detection.

The six checkers, the divergence-window tracker and the metric
evaluator are incremental by construction (:mod:`repro.core.stream`);
this package feeds them *as operations happen*, with bounded memory
and measured state, and distills each closed test into its record
(``analyze_trace`` is the same engine run over a finished trace).

Layout:

* :mod:`repro.stream.engine` — the fan-out hub and telemetry.
* :mod:`repro.stream.ingest` — trace replay and the live watermark
  sequencer (``OperationObserver`` implementation).
* :mod:`repro.stream.fleet` — streaming shard execution for the fleet.
* :mod:`repro.stream.parity` — the record diff the feed-parity checks
  print.
"""

from repro.core.stream import StreamOp, TestMeta, stream_order
from repro.obs.events import WindowEvent
from repro.stream.engine import DEFAULT_HORIZON, Emission, StreamEngine
from repro.stream.ingest import OpIngest, replay_trace
from repro.stream.parity import record_mismatches

__all__ = [
    "TestMeta",
    "StreamOp",
    "WindowEvent",
    "DEFAULT_HORIZON",
    "Emission",
    "StreamEngine",
    "OpIngest",
    "replay_trace",
    "stream_order",
    "record_mismatches",
]
