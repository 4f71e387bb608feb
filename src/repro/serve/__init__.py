"""The campaign service: long-running hunts behind the shared web API.

The paper's measurement was itself a long-running service: campaigns
ran for 30 days against live APIs, supervised, resumable, and observed
through their artifacts (§IV).  This subpackage reproduces that
*operational* shape for the simulated methodology — a GRR-style hunt
service:

* :mod:`repro.serve.hunt` — the :class:`HuntSpec` / :class:`HuntState`
  model (queued -> running -> paused -> done) with validated
  transitions;
* :mod:`repro.serve.store` — digest-validated persistence of hunt
  state, event feeds, and per-hunt fleet artifact stores;
* :mod:`repro.serve.scheduler` — concurrent hunts over the fleet's one
  dispatch loop (work stealing across hunts);
* :mod:`repro.serve.service` — the application core (submit / pause /
  resume / cancel / query);
* :mod:`repro.serve.httpapi` — the versioned ``/v1`` routes on the
  shared :class:`~repro.webapi.router.Router`;
* :mod:`repro.serve.server` — the in-process transport and the stdlib
  HTTP shell.

Contract: a hunt run through the service produces an artifact store
and merged ``fleet_signature`` byte-identical to a direct
:func:`repro.fleet.run_fleet` of the same spec.  The serving shell is
the only layer allowed wall-clock time (`repro.lint` DET002 line
waivers at the rate limiter and the pool's shard deadlines);
everything below a shard boundary is a pure function of the spec.
"""

from repro.serve.hunt import (
    HUNT_STATUSES,
    TERMINAL_STATUSES,
    HuntSpec,
    HuntState,
    check_transition,
)
from repro.serve.scheduler import HuntOutcome, run_hunts
from repro.serve.server import HuntServer, follow_events, serve_http
from repro.serve.service import CampaignService
from repro.serve.store import HuntStore

__all__ = [
    "HuntSpec",
    "HuntState",
    "HUNT_STATUSES",
    "TERMINAL_STATUSES",
    "check_transition",
    "HuntStore",
    "HuntOutcome",
    "run_hunts",
    "CampaignService",
    "HuntServer",
    "serve_http",
    "follow_events",
]
