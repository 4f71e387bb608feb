"""The documented extension path runs: ``examples/custom_service.py``.

The example defines a service on ``OnlineService._serve_host``,
registers it in ``SERVICE_IMPORTS`` / ``PAPER_PLANS`` and measures it
with the unchanged runner.  Its per-client session cache replays a
client's own writes into every read, so read-your-writes holds by
construction: a run that reports any is a broken extension path.
"""

from pathlib import Path

import pytest

from repro.methodology import PAPER_PLANS
from repro.services import SERVICE_IMPORTS

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture
def custom_service(monkeypatch):
    """The example module, with the registries restored afterwards."""
    monkeypatch.syspath_prepend(str(EXAMPLES))
    imports, plans = dict(SERVICE_IMPORTS), dict(PAPER_PLANS)
    import custom_service

    yield custom_service
    SERVICE_IMPORTS.clear()
    SERVICE_IMPORTS.update(imports)
    PAPER_PLANS.clear()
    PAPER_PLANS.update(plans)


def test_sticky_cache_service_runs_without_ryw(custom_service, capsys):
    custom_service.main(num_tests=2)
    assert SERVICE_IMPORTS["sticky_cache"] == \
        "custom_service:StickyCacheService"
    out = capsys.readouterr().out
    assert "(2 tests per template)" in out
    rows = dict(line.split() for line in out.splitlines()
                if line.endswith("%"))
    assert len(rows) == 6
    assert rows["read_your_writes"] == "0.0%"

