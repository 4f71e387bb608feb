"""Lint configuration, loaded from ``[tool.repro-lint]`` in pyproject.

The configuration controls which rules run and where the scoped rules
apply.  All keys are optional; the defaults encode this repository's
determinism contract:

.. code-block:: toml

    [tool.repro-lint]
    select = ["DET001", "DET002"]        # default: every rule
    ignore = ["API001"]                  # default: none
    random-allowlist = ["repro.sim.random_source"]
    sim-scopes = ["repro.sim", "repro.services", "repro.replication",
                  "repro.methodology"]
    trace-scopes = ["repro.core.anomalies"]
    entry-points = ["repro.methodology.runner.run_campaign"]
    scope-exempt = ["repro.fleet"]       # inferred-but-excluded, with
                                         # a justification comment
    world-scopes = ["repro.world"]       # DET007 applies here...
    world-bus-modules = ["repro.world.bus", "repro.world.engine"]
                                         # ...except in these modules
    exclude = ["**/_generated_*.py"]     # glob on posix paths

Parsing uses the standard library's :mod:`tomllib`, so the linter has
zero third-party dependencies.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "LintConfig",
    "load_config",
    "find_pyproject",
    "config_from_table",
    "DEFAULT_SIM_SCOPES",
    "DEFAULT_TRACE_SCOPES",
    "DEFAULT_RANDOM_ALLOWLIST",
    "DEFAULT_AGGREGATION_SCOPES",
    "DEFAULT_ENTRY_POINTS",
    "DEFAULT_PIPE_BOUNDARIES",
    "DEFAULT_EMIT_METHODS",
    "DEFAULT_SCOPE_EXEMPT",
    "DEFAULT_WORLD_SCOPES",
    "DEFAULT_WORLD_BUS_MODULES",
]

#: Packages whose behaviour feeds simulated scheduling and trace order;
#: DET002 (wall clock/entropy) and DET003 (unordered iteration) apply
#: here.  Since the whole-program pass landed this list tracks the
#: *inferred* scope (the import closure of the entry points below);
#: the scope audit warns when the two drift apart.
DEFAULT_SIM_SCOPES = (
    "repro.sim",
    "repro.services",
    "repro.replication",
    "repro.methodology",
    "repro.net",
    "repro.agents",
    "repro.clocksync",
    "repro.core",
    "repro.errors",
    "repro.io",
    "repro.obs",
    "repro.stream",
    "repro.masking",
    "repro.analysis",
)

#: Packages holding anomaly checkers; TRACE001 (no trace mutation)
#: applies here.
DEFAULT_TRACE_SCOPES = ("repro.core.anomalies",)

#: Modules allowed to import the stdlib ``random`` module directly.
DEFAULT_RANDOM_ALLOWLIST = ("repro.sim.random_source",)

#: Packages whose merge/aggregation paths fold shard or campaign
#: results into reported numbers; DET004 (float reductions over
#: unordered collections) applies here.  A superset of the sim scopes:
#: the fleet engine, the persistence layer, and the analysis pipeline
#: aggregate results without being simulation code themselves.
DEFAULT_AGGREGATION_SCOPES = DEFAULT_SIM_SCOPES + (
    "repro.fleet",
    "repro.calibrate",
)

#: Functions whose transitive callees constitute "the computation a
#: campaign result depends on": the serial campaign runner, the two
#: clients of the work pool (both reach ``repro.fleet.pool.run_shard``,
#: the code a worker runs), and the default shard runner the pool
#: calls through a task.  The whole-program pass starts reachability
#: (DET005, TRACE002) and scope inference here.
DEFAULT_ENTRY_POINTS = (
    "repro.methodology.runner.run_campaign",
    "repro.fleet.executor.run_fleet",
    "repro.serve.scheduler.run_hunts",
    "repro.fleet.executor.execute_shard",
)

#: Dotted call targets treated as process-boundary crossings: every
#: argument passed into them must be picklable by construction
#: (PAR001).  Matched by prefix against alias-resolved call chains;
#: ``Pool``-style method names are recognised structurally on top.  A
#: ``target:arg,arg`` suffix restricts the check to the named keyword
#: arguments (``run_fleet`` keeps ``on_event`` host-side — only the
#: shard runner is shipped to workers).  The repo's own boundary is
#: declared once, at the pool's entry — a ``ShardTask`` is what crosses
#: the pipe — plus the public aliases through which a caller hands the
#: pool clients a runner.
DEFAULT_PIPE_BOUNDARIES = (
    "multiprocessing.Process",
    "multiprocessing.get_context",
    "concurrent.futures.ProcessPoolExecutor",
    "repro.fleet.pool.ShardTask:runner,verdicts",
    "repro.fleet.run_fleet:shard_runner",
    "repro.fleet.executor.run_fleet:shard_runner",
    "repro.serve.run_hunts:shard_runner",
    "repro.serve.scheduler.run_hunts:shard_runner",
)

#: Method names through which a trace/operation record is *emitted* to
#: observers or across a pipe; TRACE002 forbids mutating a record after
#: passing it to one of these.
DEFAULT_EMIT_METHODS = (
    "operation",
    "test_opened",
    "test_closed",
    "send",
)

#: Modules that the import graph proves reachable from the entry
#: points but that are *consciously* excluded from the sim scopes.
#: ``repro.fleet`` is the host-side executor shell: it schedules OS
#: processes with real wall-clock timeouts and never computes a
#: simulated quantity — its determinism obligations are the ordered
#: merge (aggregation scope) and pickle safety (PAR001), not virtual
#: time.
DEFAULT_SCOPE_EXEMPT = (
    "repro.fleet",
)

#: Packages holding partitioned-world state; DET007 (cross-shard state
#: access bypassing the world message bus) applies here.
DEFAULT_WORLD_SCOPES = ("repro.world",)

#: Modules *inside* the world scopes that are allowed to reach through
#: shard collections: the bus itself and the engine that sequences bus
#: deliveries at the epoch barrier.  Everything else in a world scope
#: must route cross-shard effects as bus messages.
DEFAULT_WORLD_BUS_MODULES = ("repro.world.bus", "repro.world.engine")


def _in_scope(module: str, scopes: tuple[str, ...]) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in scopes
    )


@dataclass(frozen=True)
class LintConfig:
    """Effective linter configuration (defaults + pyproject + CLI)."""

    #: Rule codes to run; empty means "every registered rule".
    select: tuple[str, ...] = ()
    #: Rule codes to skip even if selected.
    ignore: tuple[str, ...] = ()
    sim_scopes: tuple[str, ...] = DEFAULT_SIM_SCOPES
    trace_scopes: tuple[str, ...] = DEFAULT_TRACE_SCOPES
    random_allowlist: tuple[str, ...] = DEFAULT_RANDOM_ALLOWLIST
    aggregation_scopes: tuple[str, ...] = DEFAULT_AGGREGATION_SCOPES
    #: Whole-program reachability roots (``module.function`` dotted).
    entry_points: tuple[str, ...] = DEFAULT_ENTRY_POINTS
    #: Call targets that cross a process boundary (PAR001).
    pipe_boundaries: tuple[str, ...] = DEFAULT_PIPE_BOUNDARIES
    #: Methods that emit a record to observers/pipes (TRACE002).
    emit_methods: tuple[str, ...] = DEFAULT_EMIT_METHODS
    #: Modules consciously excluded from the inferred sim scope.
    scope_exempt: tuple[str, ...] = DEFAULT_SCOPE_EXEMPT
    #: Packages holding partitioned-world state (DET007).
    world_scopes: tuple[str, ...] = DEFAULT_WORLD_SCOPES
    #: World modules allowed to reach through shard collections.
    world_bus_modules: tuple[str, ...] = DEFAULT_WORLD_BUS_MODULES
    #: ``fnmatch`` globs (posix paths) of files to skip entirely.
    exclude: tuple[str, ...] = ()
    #: Where the configuration was read from, for diagnostics.
    source: str = "<defaults>"

    def enabled(self, code: str) -> bool:
        if code in self.ignore:
            return False
        return not self.select or code in self.select

    def in_sim_scope(self, module: str) -> bool:
        return _in_scope(module, self.sim_scopes)

    def in_trace_scope(self, module: str) -> bool:
        return _in_scope(module, self.trace_scopes)

    def in_aggregation_scope(self, module: str) -> bool:
        return _in_scope(module, self.aggregation_scopes)

    def random_allowed(self, module: str) -> bool:
        return _in_scope(module, self.random_allowlist)

    def in_scope_exempt(self, module: str) -> bool:
        return _in_scope(module, self.scope_exempt)

    def in_world_scope(self, module: str) -> bool:
        return _in_scope(module, self.world_scopes)

    def is_world_bus_module(self, module: str) -> bool:
        return _in_scope(module, self.world_bus_modules)

    def pipe_boundary(self, resolved: str) -> tuple[str, ...] | None:
        """Boundary spec for an alias-resolved call chain.

        Returns ``None`` when the call is not a boundary, ``()`` when
        every argument crosses the pipe, or the names of the keyword
        arguments that do (``target:arg,arg`` entries).
        """
        for boundary in self.pipe_boundaries:
            target, _, restriction = boundary.partition(":")
            if resolved == target or resolved.startswith(target + "."):
                if restriction:
                    return tuple(
                        name.strip()
                        for name in restriction.split(",")
                        if name.strip()
                    )
                return ()
        return None

    def with_overrides(self, select: tuple[str, ...] = (),
                       ignore: tuple[str, ...] = ()) -> "LintConfig":
        """CLI-level ``--select``/``--ignore`` layered on top."""
        updated = self
        if select:
            updated = replace(updated, select=select)
        if ignore:
            updated = replace(updated, ignore=updated.ignore + ignore)
        return updated


def find_pyproject(start: Path) -> Path | None:
    """Walk up from ``start`` to the nearest ``pyproject.toml``."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for directory in (current, *current.parents):
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None


def load_config(pyproject: Path | None) -> LintConfig:
    """Build a :class:`LintConfig` from a ``pyproject.toml`` (or defaults)."""
    if pyproject is None:
        return LintConfig()
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    table = data.get("tool", {}).get("repro-lint", {})
    return config_from_table(table, source=str(pyproject))


def config_from_table(table: dict, source: str = "<table>") -> LintConfig:
    """Translate one ``[tool.repro-lint]`` table into a config."""

    def strings(key: str, default: tuple[str, ...]) -> tuple[str, ...]:
        value = table.get(key)
        if value is None:
            return default
        if isinstance(value, str):
            value = [value]
        return tuple(str(item) for item in value)

    return LintConfig(
        select=strings("select", ()),
        ignore=strings("ignore", ()),
        sim_scopes=strings("sim-scopes", DEFAULT_SIM_SCOPES),
        trace_scopes=strings("trace-scopes", DEFAULT_TRACE_SCOPES),
        random_allowlist=strings(
            "random-allowlist", DEFAULT_RANDOM_ALLOWLIST
        ),
        aggregation_scopes=strings(
            "aggregation-scopes", DEFAULT_AGGREGATION_SCOPES
        ),
        entry_points=strings("entry-points", DEFAULT_ENTRY_POINTS),
        pipe_boundaries=strings(
            "pipe-boundaries", DEFAULT_PIPE_BOUNDARIES
        ),
        emit_methods=strings("emit-methods", DEFAULT_EMIT_METHODS),
        scope_exempt=strings("scope-exempt", DEFAULT_SCOPE_EXEMPT),
        world_scopes=strings("world-scopes", DEFAULT_WORLD_SCOPES),
        world_bus_modules=strings(
            "world-bus-modules", DEFAULT_WORLD_BUS_MODULES
        ),
        exclude=strings("exclude", ()),
        source=source,
    )

