"""Smoke tests for the one CI gate runner, ``tools/gates.py``.

The gates themselves run in CI (``python tools/gates.py``); here only
the table and the argument handling are checked, which costs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

GATES_PATH = Path(__file__).parent.parent / "tools" / "gates.py"


@pytest.fixture(scope="module")
def gates():
    spec = importlib.util.spec_from_file_location("gates", GATES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_list_names_exactly_the_eight_gates(gates, capsys):
    assert gates.main(["--list"]) == 0
    assert capsys.readouterr().out.split() == [
        "fleet", "stream", "obs", "fidelity", "scenario",
        "relations", "serve", "world",
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
