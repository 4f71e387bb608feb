"""Seeded mutations of the real ``src/repro`` tree, one per hazard.

Each row of :data:`MUTATIONS` is the evidence that a rule earns its
keep (ROADMAP item 6): an edit a tired contributor could plausibly
make to a real module, which tier-1 does not notice and the linter
does.  A row replaces ``anchor`` (which must occur exactly once — an
anchor that no longer matches *fails*, it never skips) with
``replacement`` in a temporary copy of ``src/repro`` — module paths
preserved, so scopes apply exactly as in CI — runs the one-mode linter
under ``LintConfig()`` and expects ``rule`` on the last line of the
replacement, or at ``flagged_at`` when the finding lands elsewhere.

Rows marked *missed at PR 20* passed the linter clean before scopes
became the package itself: the hand-kept lists had drifted.
"""

import shutil
from pathlib import Path
from typing import NamedTuple

import pytest

from repro.lint import lint_paths

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


class Mutation(NamedTuple):
    rule: str
    #: File under ``src/repro`` to edit.
    path: str
    anchor: str
    replacement: str
    #: ``(file, text)`` of the line the finding lands on, when it is
    #: not the mutated line (TRACE002 reports the caller).
    flagged_at: tuple[str, str] | None = None
    #: Lint the whole copy, not just the mutated file — for findings
    #: that need the cross-module call graph.
    whole_tree: bool = False


MUTATIONS = [
    # DET001 — ambient randomness instead of a RandomSource stream.
    Mutation(
        "DET001", "replication/eventual.py",
        "from __future__ import annotations\n",
        "from __future__ import annotations\n"
        "_jitter = random.random()\n"),
    # DET002 — missed at PR 20 under LintConfig(): repro.webapi was in
    # pyproject's sim-scopes but not in the DEFAULT_* copy.
    Mutation(
        "DET002", "webapi/router.py",
        "        exact = self._exact.get((method, path))\n",
        "        exact = self._exact.get((method, path))\n"
        "        self.last_resolved = time.time()\n"),
    # DET002 — a reference, not a call: missed at PR 20 in any scope.
    Mutation(
        "DET002", "webapi/ratelimit.py",
        "                 now_fn: Callable[[], float]) -> None:\n",
        "                 now_fn: Callable[[], float] = time.monotonic"
        ") -> None:\n"),
    # DET003 — iteration in hash order (a dropped ``sorted``).
    Mutation(
        "DET003", "analysis/cdf.py",
        "    for pair in sorted(set(cdf_set.samples)"
        " | set(cdf_set.unconverged)):\n",
        "    for pair in set(cdf_set.samples).union("
        "cdf_set.unconverged):\n"),
    # DET003 — materialized hash order (was DET006).
    Mutation(
        "DET003", "world/spec.py",
        "        ordered = tuple(sorted(set(int(i) for i in self.side)))\n",
        "        ordered = tuple(set(int(i) for i in self.side))\n"),
    # DET003 — order-sensitive float reduction (was DET004).
    Mutation(
        "DET003", "calibrate/claims.py",
        "    mean = sum(values) / len(values)\n",
        "    mean = sum(set(values)) / len(values)\n"),
    # DET003 — star-unpacking: missed at PR 20 by all three order rules.
    Mutation(
        "DET003", "calibrate/search.py",
        "            next_survivors = sorted({0, *kept})"
        "  # baseline shielding\n",
        "            next_survivors = [*{0, *kept}]\n"),
    # DET005 — missed at PR 20: run_world was never an entry point.
    Mutation(
        "DET005", "world/engine.py",
        '    """Convenience: run one world spec under ``seed``."""\n',
        '    """Convenience: run one world spec under ``seed``."""\n'
        "    global _LAST_SEED\n"
        "    _LAST_SEED = seed\n"),
    # DET007 — a neighbour poke instead of a bus message.
    Mutation(
        "DET007", "world/model.py",
        '        """Open-state footprint: feed entries + buffered ops."""\n',
        '        """Open-state footprint: feed entries + buffered ops."""\n'
        "        peer_feeds = self._replicas[0].feeds\n"),
    # PAR001 — a closure handed to the worker pool.
    Mutation(
        "PAR001", "fleet/executor.py",
        "                ShardTask(job, runner=shard_runner or "
        "execute_shard))\n",
        "                ShardTask(job, runner=lambda j: "
        "shard_runner(j)))\n"),
    # PAR001 — a closure as a world shard group's worker entry point.
    Mutation(
        "PAR001", "world/engine.py",
        "                    _group_worker, (self.spec, self.seed, "
        "block),\n",
        "                    lambda *args: _group_worker(*args), "
        "(self.spec, self.seed, block),\n"),
    # TRACE001 — missed at PR 20: trace-scopes still said
    # repro.core.anomalies, where no function takes a trace any more.
    Mutation(
        "TRACE001", "core/windows.py",
        '    """Compute the windows where ``predicate`` holds between '
        'two views."""\n',
        '    """Compute the windows where ``predicate`` holds between '
        'two views."""\n'
        "    trace.operations.reverse()\n"),
    # TRACE002 — the campaign loop touching a trace observers hold.
    Mutation(
        "TRACE002", "methodology/runner.py",
        "                    observer.test_closed(trace)\n",
        "                    observer.test_closed(trace)\n"
        "                    trace.operations.clear()\n"),
    # TRACE002 — the parameter-mutation fixpoint earning its keep: an
    # in-place sort two call hops below the emission (analyze_trace ->
    # run_to_completion -> stream_order) is reported at the call in
    # runner.py that hands the emitted trace down.
    Mutation(
        "TRACE002", "core/stream.py",
        "    meta = meta or TestMeta.from_trace(trace)\n"
        "    deltas = {agent",
        "    meta = meta or TestMeta.from_trace(trace)\n"
        "    trace.operations.sort()\n"
        "    deltas = {agent",
        flagged_at=("methodology/runner.py",
                    "record = analyze_trace(trace, config.keep_traces,"),
        whole_tree=True),
]


def _line_of(text: str, needle: str) -> int:
    assert text.count(needle) == 1, f"{needle!r} is not unique"
    return text[:text.index(needle)].count("\n") + 1


@pytest.fixture(scope="module")
def package_copy(tmp_path_factory):
    """A pristine copy of ``src/repro`` under a directory of its own."""
    root = tmp_path_factory.mktemp("mutations") / "repro"
    shutil.copytree(SRC_REPRO, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_unmutated_copy_is_clean(package_copy):
    result = lint_paths([package_copy])
    assert result.ok, result.findings
    assert result.files_checked >= 150


@pytest.mark.parametrize(
    "mutation", MUTATIONS,
    ids=[f"{m.rule}-{m.path}" for m in MUTATIONS])
def test_mutation_is_caught_at_its_line(package_copy, mutation):
    target = package_copy / mutation.path
    original = target.read_text(encoding="utf-8")
    assert original.count(mutation.anchor) == 1, (
        f"anchor for {mutation.rule} no longer matches "
        f"{mutation.path} exactly once — re-seed the mutation")
    mutated = original.replace(mutation.anchor, mutation.replacement)
    if mutation.flagged_at is None:
        flagged = target
        last_line = mutation.replacement.rstrip("\n").rsplit("\n", 1)[-1]
        line = _line_of(mutated, last_line + "\n")
    else:
        flagged = package_copy / mutation.flagged_at[0]
        line = _line_of(flagged.read_text(encoding="utf-8"),
                        mutation.flagged_at[1])
    target.write_text(mutated, encoding="utf-8")
    try:
        result = lint_paths(
            [package_copy if mutation.whole_tree else target])
    finally:
        target.write_text(original, encoding="utf-8")
    hits = [(Path(f.path).name, f.line) for f in result.findings
            if f.code == mutation.rule]
    assert (flagged.name, line) in hits, result.findings


def test_every_rule_has_a_mutation():
    from repro.lint import rule_codes

    assert {m.rule for m in MUTATIONS} == set(rule_codes())


def test_new_package_is_in_scope_with_no_configuration(package_copy):
    """Fail-closed: a module in a package nobody has listed anywhere."""
    newpkg = package_copy / "newpkg"
    newpkg.mkdir()
    try:
        (newpkg / "__init__.py").write_text("")
        (newpkg / "x.py").write_text(
            "import time\n"
            "\n"
            "\n"
            "def probe(trace, y):\n"
            "    started = time.time()\n"
            "    for x in set(y):\n"
            "        trace.operations.append((started, x))\n"
        )
        result = lint_paths([newpkg])
    finally:
        shutil.rmtree(newpkg)
    assert [(f.code, f.line) for f in result.findings] == [
        ("DET002", 5), ("DET003", 6), ("TRACE001", 7)]
