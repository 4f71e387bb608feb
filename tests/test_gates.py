"""Smoke tests for the CI gate tools, ``tools/gates.py`` and
``tools/bench_check.py``.

The gates themselves run in CI (``python tools/gates.py``,
``python tools/bench_check.py``); here only the table, the argument
handling, the profile and budgets the fidelity gate scores and the
baseline comparison are checked, which costs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.calibrate import FidelityScore, default_objective, target_services
from repro.calibrate.claims import Verdict

TOOLS = Path(__file__).parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gates():
    return load_tool("gates")


@pytest.fixture(scope="module")
def compare():
    """``compare_payloads`` at the gate's default band, returning the
    failure lines."""
    bench_check = load_tool("bench_check")

    def compare(baseline, fresh):
        failures = []
        bench_check.compare_payloads("bench", baseline, fresh, 0.1,
                                     failures)
        return failures

    return compare


def test_list_names_exactly_the_seven_gates(gates, capsys):
    assert gates.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == [
        "fleet", "stream", "obs", "fidelity", "scenario",
        "relations", "world",
    ]


def test_unknown_gate_name_is_a_usage_error(gates, capsys):
    with pytest.raises(SystemExit) as exit_info:
        gates.main(["world", "lanes"])
    assert exit_info.value.code == 2
    assert "unknown gate 'lanes'" in capsys.readouterr().err


def test_named_gates_run_alone_and_a_failure_exits_1(gates, capsys,
                                                     monkeypatch):
    assert gates.main(["scenario"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("scenario check passed: ")

    monkeypatch.setattr(gates, "GOSSIP_MESH_SIGNATURE", "0" * 64)
    assert gates.main(["scenario"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("scenario check FAILED (")
    assert "  - gossip golden signature drifted" in out


def fake_score(service, loss):
    """A score whose every row of ``service``'s objective lost ``loss``."""
    rows = default_objective(service).rows
    return FidelityScore(
        service=service,
        terms=tuple(Verdict(row, row.paper, loss=loss) for row in rows),
        total=sum(row.weight * loss for row in rows))


def test_fidelity_gate_scores_the_default_profile_of_every_service(
        gates, monkeypatch):
    seen = []

    def record(service, params):
        seen.append((service, params))
        return fake_score(service, 0.0)

    monkeypatch.setattr(gates, "_fidelity_score", record)
    failures = []
    gates.fidelity_gate(failures)
    assert failures == []
    assert seen == [(service, None) for service in target_services()]


def test_an_over_budget_service_fails_and_prints_its_rows(
        gates, monkeypatch, capsys):
    monkeypatch.setattr(gates, "_fidelity_score",
                        lambda service, params: fake_score(service, 1.0))
    failures = []
    gates.fidelity_gate(failures)
    out = capsys.readouterr().out
    assert [failure.split(":")[0] for failure in failures] == \
        list(target_services())
    assert "blogger: weighted fidelity loss 7.0000" in out
    for service in target_services():
        for row in default_objective(service).rows:
            assert f"\n{row.id} " in out


def test_every_service_has_a_fidelity_budget(gates):
    assert set(gates.FIDELITY_BUDGETS) == set(target_services())


@pytest.mark.parametrize("field", ["sessions_per_s",
                                   "stream_ops_per_second"])
def test_throughput_up_passes_and_a_collapse_fails(compare, field):
    assert compare({field: 100.0}, {field: 1000.0}) == []
    assert compare({field: 100.0}, {field: 11.0}) == []
    (failure,) = compare({field: 100.0}, {field: 9.0})
    assert f"{field} regressed 100.0 -> 9.0 (floor 10.0" in failure


def test_cost_down_passes_and_a_blow_up_fails(compare):
    baseline = {"serial_seconds": 1.0, "stream_over_batch": 2.0}
    assert compare(baseline, {"serial_seconds": 0.1,
                              "stream_over_batch": 19.0}) == []
    (failure,) = compare(baseline, {"serial_seconds": 1.0,
                                    "stream_over_batch": 21.0})
    assert "stream_over_batch regressed 2.000 -> 21.000" in failure


def test_a_nested_dict_is_banded_like_the_key_that_holds_it(compare):
    baseline = {"trials_per_second": {"1": 40.0, "4": 90.0},
                "trials": {"1": 12, "4": 12}}
    assert compare(baseline, {"trials_per_second": {"1": 55.0,
                                                    "4": 300.0},
                              "trials": {"1": 12, "4": 12}}) == []
    failures = compare(baseline, {"trials_per_second": {"1": 3.0,
                                                        "4": 90.0},
                                  "trials": {"1": 12, "4": 13}})
    assert len(failures) == 2
    assert "trials_per_second.1 regressed 40.0 -> 3.0" in failures[1]
    assert "deterministic field trials.4 drifted" in failures[0]
    # A nested key with a class of its own keeps it.
    assert compare({"runs_per_s": {"wall_seconds": 1.0}},
                   {"runs_per_s": {"wall_seconds": 0.2}}) == []
