"""Lint configuration: one frozen dataclass whose defaults *are* the
contract CI enforces.

There is no configuration file.  The scoped rules (DET002, DET003,
DET005, TRACE001) apply to every module of :attr:`LintConfig.package`
— the ``repro`` package itself — so a package added tomorrow is in
scope by default; an exemption is a ``# repro-lint: disable=CODE``
waiver written, with its reason, at the exempt line.  The remaining
fields are the few constants a rule cannot read off the code it
checks; only test fixtures construct a non-default :class:`LintConfig`
(to point ``package`` at a fixture package).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["LintConfig"]


def _in_scope(module: str, scopes: tuple[str, ...]) -> bool:
    return any(
        module == scope or module.startswith(scope + ".")
        for scope in scopes
    )


@dataclass(frozen=True)
class LintConfig:
    """Effective linter configuration."""

    #: Root package the scoped rules apply to — all of it.
    package: str = "repro"
    #: Modules allowed to import the stdlib ``random`` module directly
    #: (DET001): the one module whose job is to wrap ``random.Random``.
    random_allowlist: tuple[str, ...] = ("repro.sim.random_source",)
    #: Packages holding partitioned-world state; DET007 (cross-shard
    #: state access bypassing the world message bus) applies here...
    world_scopes: tuple[str, ...] = ("repro.world",)
    #: ...except in the bus itself and the engine that sequences bus
    #: deliveries at the epoch barrier, the two modules allowed to
    #: reach through shard collections.
    world_bus_modules: tuple[str, ...] = (
        "repro.world.bus", "repro.world.engine")
    #: Dotted call targets treated as process-boundary crossings: every
    #: argument passed into them must be picklable by construction
    #: (PAR001).  Matched by prefix against alias-resolved call chains;
    #: ``Pool``-style method names are recognised structurally on top.
    #: A ``target:arg,arg`` suffix restricts the check to the named
    #: keyword arguments (``run_fleet`` keeps ``on_event`` host-side —
    #: only the shard runner is shipped to workers).  The repo's own
    #: boundaries are declared at the pool: a ``ShardTask`` is what
    #: crosses a shard worker's pipe, and ``start_worker``'s target and
    #: arguments (a world shard group's entry point among them) cross
    #: into every worker — plus the public aliases through which a
    #: caller hands the pool client a runner.
    pipe_boundaries: tuple[str, ...] = (
        "multiprocessing.Process",
        "multiprocessing.get_context",
        "concurrent.futures.ProcessPoolExecutor",
        "repro.fleet.pool.ShardTask:runner,verdicts",
        "repro.fleet.pool.start_worker",
        "repro.fleet.run_fleet:shard_runner",
        "repro.fleet.executor.run_fleet:shard_runner",
        "repro.fleet.executor.dispatch_run:shard_runner,verdicts",
    )
    #: Method names through which a trace/operation record is *emitted*
    #: to observers or across a pipe; TRACE002 forbids mutating a
    #: record after passing it to one of these.
    emit_methods: tuple[str, ...] = (
        "operation", "test_opened", "test_closed", "send")

    def in_package(self, module: str) -> bool:
        return _in_scope(module, (self.package,))

    def random_allowed(self, module: str) -> bool:
        return _in_scope(module, self.random_allowlist)

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
