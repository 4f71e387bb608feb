"""Clock synchronization for the measurement methodology.

The paper's coordinator estimates each agent's clock delta with a
Cristian-style protocol before every test (§IV).
:func:`estimate_clock_delta` is that protocol as a simulation process;
:func:`make_time_query_handler` is the agent-side responder.
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".cristian": (
        "DeltaEstimate", "estimate_clock_delta", "make_time_query_handler",
        "TIME_QUERY",
    ),
})
