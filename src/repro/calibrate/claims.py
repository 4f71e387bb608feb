"""The paper's §V shape claims as one table of rows.

:mod:`repro.calibrate.targets` holds the numbers §V publishes; each
:class:`Claim` is one thing §V *claims* with them: a statistic of the
per-service campaign results (a :class:`Measured` method), a
comparator, and a bound — a constant, a ``(low, high)`` band, or
another statistic times a factor ("Feed RYW > 2 × Google+ RYW").  Its
``paper`` value is read from ``PAPER_TARGETS`` wherever that has one.
An id reads ``<source>.<service>.<statistic>``, a ``vs_<service>``
segment naming a second service the bound reads.  Bounds are shapes:
the substrate is a simulator, not the authors' 2015 testbed.  A
guarded row reports "n/a", and holds, while its guard is false.

A row with a ``weight`` is also a term of its service's calibration
objective (:mod:`repro.calibrate.objective`): every number
``PAPER_TARGETS`` publishes is the ``paper`` value of exactly one
weighted row.  Where no shape row reads a published number,
:data:`FIT_ROWS` holds a *fit row* for it: weighted, with no
comparator, and never a claim — ``evaluate_claims`` reads
:data:`CLAIMS` only.

Across seeds (``fleet --seeds``), :func:`across_seeds` reduces a row
to its mean, spread and, from Figure 3 counts, a 95 % interval, and
:func:`decision_size` to the tests per template that decide it.  A
row no campaign of the paper's size (~1,000 tests per template)
decides is not a claim: a weighted one is a fit row instead.

The ``graded.*`` rows are extensions, not the paper's: they read the
:data:`GRADED` metrics (``docs/relations.md``) where Figure 3
saturates, and are guarded on the campaign having run them, so a run
without metrics prints them "n/a".
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass, replace
from typing import Any

from repro.analysis.cdf import window_cdfs
from repro.analysis.correlation import location_correlation
from repro.analysis.distributions import occurrence_distribution
from repro.analysis.divergence import pair_divergence
from repro.analysis.prevalence import assessing_test_type, prevalence_rows
from repro.calibrate.targets import (
    IRELAND_OREGON,
    IRELAND_TOKYO,
    OREGON_TOKYO,
    PAPER_TARGETS,
)
from repro.core.anomalies import (
    ALL_ANOMALIES,
    CONTENT_DIVERGENCE,
    MONOTONIC_READS,
    MONOTONIC_WRITES,
    ORDER_DIVERGENCE,
    READ_YOUR_WRITES,
    WRITES_FOLLOW_READS,
)
from repro.errors import ConfigurationError
from repro.methodology.config import PAPER_PLANS
from repro.methodology.records import CampaignResult

__all__ = ["CLAIMS", "FIT_ROWS", "GRADED", "Claim", "Measured", "S",
           "Verdict", "across_seeds", "claims_table", "decision_size",
           "evaluate_claims", "evaluate_seeds", "experiments_region",
           "fig3_lines", "held_at", "region_disagreements", "score_row",
           "seeds_table"]

GPLUS, BLOGGER = "googleplus", "blogger"
FEED, GROUP = "facebook_feed", "facebook_group"
AGENTS = ("ireland", "oregon", "tokyo")
IRELAND_PAIRS = (IRELAND_OREGON, IRELAND_TOKYO)
TOKYO_PAIRS = (OREGON_TOKYO, IRELAND_TOKYO)
#: Oregon-Tokyo first: the order fixes the Fig. 10 share's float sum.
ALL_PAIRS = (OREGON_TOKYO, IRELAND_OREGON, IRELAND_TOKYO)
#: Figure 8's anomaly per divergence kind.
_DIVERGENCE = {"content": CONTENT_DIVERGENCE, "order": ORDER_DIVERGENCE}

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "==": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "in": lambda value, band: band[0] <= value <= band[1],
}
_SOURCES = {"table1": "Table I", "table2": "Table II", "totals": "§V",
            "graded": "extension"}
#: The graded metrics the extension rows read; the runs that evaluate
#: the claims (the bench campaigns, ``tools/experiments.py``) ask for
#: them.
GRADED = ("relaxed_consistency", "stale_read_inversions")
#: The two-sided 95 % normal quantile of every interval.
Z95 = 1.959963984540054


class Measured:
    """The statistics claims read, over per-service campaign results;
    each figure's analysis runs once per service and arguments."""

    def __init__(self, results: Mapping[str, CampaignResult]) -> None:
        self.results = results
        self._memo: dict[tuple, Any] = {}

    def _once(self, analysis: Callable, service: str, *args) -> Any:
        key = (analysis, service, args)
        if key not in self._memo:
            self._memo[key] = analysis(self.results[service], *args)
        return self._memo[key]

    def share(self, service: str, anomaly: str) -> float:
        """Figure 3 prevalence, on the template assessing ``anomaly``."""
        return self.results[service].prevalence(
            anomaly, assessing_test_type(anomaly))

    def located(self, service: str, anomaly: str, split: str) -> float:
        """Anomalous tests seen by one agent ("local") or all three."""
        breakdown = self._once(location_correlation, service, anomaly)
        return (breakdown.fraction_exclusive() if split == "local"
                else breakdown.fraction_global())

    def anomalous(self, service: str, anomaly: str) -> int:
        return self._once(location_correlation, service,
                          anomaly).tests_with_anomaly

    def bucketed(self, service: str, anomaly: str,
                 labels: tuple[str, ...], agents=AGENTS) -> int:
        """Agent-tests whose observation count falls in ``labels``."""
        histograms = self._once(occurrence_distribution, service,
                                anomaly).histograms
        return sum(histograms[agent][label] for agent in agents
                   if agent in histograms for label in labels)

    def saw(self, service: str, anomaly: str, agent: str) -> bool:
        return agent in self._once(occurrence_distribution, service,
                                   anomaly).histograms

    def pairs(self, service: str, kind: str = "content"):
        return self._once(pair_divergence, service, _DIVERGENCE[kind])

    def rate(self, service: str, pair: tuple[str, str],
             kind: str = "content") -> float:
        return self.pairs(service, kind).fraction(pair)

    def windows(self, service: str, kind: str):
        return self._once(window_cdfs, service, kind)

    def converged(self, service: str, pair: tuple[str, str],
                  kind: str = "content", stuck: bool = False) -> int:
        """Divergent tests that converged (``stuck``: or never did)."""
        cdfs = self.windows(service, kind)
        return (len(cdfs.samples.get(pair, []))
                + (cdfs.unconverged.get(pair, 0) if stuck else 0))

    def median(self, service: str, pair: tuple[str, str],
               kind: str = "content"):
        """A pair's median window; None if it never converged."""
        cdf = self.windows(service, kind).cdf(pair)
        return cdf.median if cdf is not None else None

    def ireland_order_windows(self) -> list[float]:
        samples = self.windows(GPLUS, "order").samples
        return [value for pair, values in samples.items()
                if "ireland" in pair for value in values]

    def reads(self, service: str, test_type: str = "test1") -> float:
        return self.results[service].reads_per_agent(test_type)

    def total(self, service: str, name: str) -> int:
        return getattr(self.results[service], name)

    def off_design(self, service: str, test_type: str, writes: int) -> int:
        """Tests of one template that did not log ``writes`` writes."""
        return sum(1 for record in self.results[service].of_type(test_type)
                   if sum(record.writes_per_agent.values()) != writes)

    def graded(self, service: str, test_type: str, metric: str,
               above: int = 0) -> float | None:
        """Share of a template's tests whose ``metric`` value exceeds
        ``above``; None with no test of that template."""
        records = self.results[service].of_type(test_type)
        if not records:
            return None
        return sum(1 for record in records for result in record.metrics
                   if result.metric == metric
                   and result.value > above) / len(records)


#: A statistic: measured results -> value (None: nothing to measure).
Stat = Callable[[Measured], Any]
#: ``S("rate", service, pair)`` is the statistic ``m.rate(service, pair)``.
S = operator.methodcaller


def _over(reduce: Callable, stats: list[Stat]) -> Stat:
    """``reduce`` (min / max) of statistics; None if any is None."""
    def statistic(m):
        values = [stat(m) for stat in stats]
        return None if None in values else reduce(values)
    return statistic


@dataclass(frozen=True)
class Claim:
    """One shape claim of §V and the check that reads it."""

    id: str
    statistic: Stat
    op: str | None = None  # a key of _OPS; None for a fit row
    #: A constant, a ``(low, high)`` band, or a statistic.
    bound: Any = None
    #: With a statistic as ``bound``, the limit is ``factor * bound``.
    factor: float | None = None
    paper: Any = None
    #: False for these results: the claim does not apply ("n/a").
    guard: Callable[[Measured], bool] | None = None
    #: The row's share of its service's fit objective; 0.0: a shape only.
    weight: float = 0.0

    @property
    def source(self) -> str:
        prefix = self.id.split(".")[0]
        return _SOURCES.get(prefix, f"Fig. {prefix[3:]}")

    @property
    def services(self) -> tuple[str, ...]:
        _, service, *rest = self.id.split(".")
        return (service, *(part[3:] for part in rest
                           if part.startswith("vs_")))


@dataclass(frozen=True)
class Verdict:
    """One claim evaluated on one set of campaign results."""

    claim: Claim
    value: Any = None
    limit: Any = None
    holds: bool = True
    applies: bool = True
    #: A weighted row's distance to the paper (see :func:`score_row`).
    loss: float | None = None
    #: Across seeds (:func:`across_seeds`; ``value`` is the mean): min
    #: and max, D, the 95 % interval and its kind.
    spread: tuple[float, float] | None = None
    dispersion: float | None = None
    interval: tuple[float, float] | None = None
    kind: str | None = None

    @property
    def paper_inside(self) -> bool | None:
        """Whether the paper's number lies in :attr:`interval`."""
        paper, interval = self.claim.paper, self.interval
        return (None if interval is None or not isinstance(
            paper, (int, float)) else interval[0] <= paper <= interval[1])


def score_row(claim: Claim, measured: Measured) -> Verdict:
    """A weighted row's ``|value - paper| / max(|paper|, 1)``.

    A statistic with nothing to measure (None) scores as 0.0, and the
    guard is not read: an objective scores every row every time.
    """
    value = claim.statistic(measured)
    value = 0.0 if value is None else value
    return Verdict(claim, value, loss=abs(value - claim.paper)
                   / max(abs(claim.paper), 1.0))


def _check(claim: Claim, measured: Measured) -> Verdict:
    if claim.guard is not None and not claim.guard(measured):
        return Verdict(claim, applies=False)
    value, limit = claim.statistic(measured), claim.bound
    if callable(limit):
        limit = limit(measured)
        if limit is not None and claim.factor is not None:
            limit = claim.factor * limit
    holds = (value is not None and limit is not None
             and _OPS[claim.op](value, limit))
    return Verdict(claim, value, limit, holds)


def evaluate_claims(results: Mapping[str, CampaignResult],
                    ) -> list[Verdict]:
    """Every claim whose services are all in ``results``, in order."""
    measured = Measured(results)
    return [_check(claim, measured) for claim in CLAIMS
            if all(service in results for service in claim.services)]


def evaluate_seeds(outcome) -> dict[int, list[Verdict]]:
    """:func:`evaluate_claims` per seed of a fleet outcome, in order."""
    by_seed: dict[int, dict[str, CampaignResult]] = {}
    for job, result in zip(outcome.jobs, outcome.results):
        by_seed.setdefault(job.seed, {})[job.service] = result
    return {seed: evaluate_claims(results)
            for seed, results in by_seed.items()}


def held_at(per_seed: Mapping[int, list[Verdict]]
            ) -> dict[str, tuple[int, int]]:
    """Row id -> (seeds where it holds, seeds where it applies)."""
    rows = [verdict for verdicts in per_seed.values()
            for verdict in verdicts if verdict.applies]
    held = Counter(verdict.claim.id for verdict in rows if verdict.holds)
    return {row: (held[row], applies) for row, applies
            in Counter(verdict.claim.id for verdict in rows).items()}


def _wilson(p: float, n: float) -> tuple[float, float]:
    """The Wilson score interval of a rate ``p`` over ``n`` trials.

    A rate of exactly 0 (1) gets a lower (upper) end of exactly 0 (1),
    which the floating-point difference only approximates.
    """
    z2n = Z95 * Z95 / n
    centre, half = (p + z2n / 2) / (1 + z2n), Z95 * math.sqrt(
        p * (1 - p) / n + z2n / (4 * n)) / (1 + z2n)
    return (0.0 if p <= 0.0 else max(0.0, centre - half),
            1.0 if p >= 1.0 else min(1.0, centre + half))


def across_seeds(claim: Claim, values: list[float],
                 counts: list[tuple[int, int]] = ()) -> Verdict:
    """A row's per-seed ``values`` as one verdict: mean, min-max and,
    from each seed's ``(anomalous, tests)``, the pooled counts' Wilson
    interval at n / max(1, D) ("pooled"; "dispersed" when D > 1)."""
    if not values:
        raise ConfigurationError("need at least one seed")
    mean = sum(values) / len(values)
    verdict = Verdict(claim, mean, spread=(min(values), max(values)))
    tests = sum(total for _, total in counts)
    if not tests:
        return verdict
    p, dispersion = sum(hits for hits, _ in counts) / tests, None
    if 0.0 < p < 1.0 and len(values) > 1:
        variance = (sum((value - mean) ** 2 for value in values)
                    / (len(values) - 1))
        binomial = p * (1 - p) * sum(1 / total for _, total in counts)
        dispersion = variance * len(counts) / binomial
    dispersed = dispersion is not None and dispersion > 1.0
    return replace(verdict, dispersion=dispersion, interval=_wilson(
        p, tests / dispersion if dispersed else tests),
        kind="dispersed" if dispersed else "pooled")


def _margin(verdict: Verdict) -> float:
    """How far a verdict's value lies on the holding side of its limit
    (negative: on the failing side); for a band, from the nearer edge."""
    value, limit, op = verdict.value, verdict.limit, verdict.claim.op
    if op == "in":
        return min(value - limit[0], limit[1] - value)
    return value - limit if op in (">", ">=") else limit - value


def decision_size(verdicts: list[Verdict], tests: int) -> float | None:
    """A row's n*: the tests per template at which one seed's 95 %
    interval no longer reaches the failing side of its limit.

    ``verdicts`` are the row's verdicts at each seed of a fleet of
    ``tests`` tests per template.  Each applying seed's margin m is
    its value's distance from the failing side of that seed's own
    limit, and n* = ⌈tests · (Z95 · sd(m) / mean(m))²⌉, at least 1: a
    margin every seed shares (a property that holds by construction)
    gives 1.  The assumption is that mean(m) / sd(m) grows as √n, as
    for a rate against a constant or a count against 0; for a Figure 3
    rate, n* is the size at which the normal half-width of
    :func:`across_seeds`' interval at n / D equals the margin.  An
    ``==`` row's n* is 1 if it holds at every seed with one value,
    else ``math.inf`` ("never"), as is any row whose mean margin is
    not positive or that has nothing to measure at some seed.  None:
    fewer than two seeds apply.
    """
    rows = [verdict for verdict in verdicts if verdict.applies]
    if len(rows) < 2:
        return None
    if any(verdict.value is None or verdict.limit is None
           for verdict in rows):
        return math.inf
    if rows[0].claim.op == "==":
        steady = len({verdict.value for verdict in rows}) == 1
        return 1 if steady and all(verdict.holds for verdict in rows) \
            else math.inf
    margins = [_margin(verdict) for verdict in rows]
    mean = sum(margins) / len(margins)
    if mean <= 0:
        return math.inf
    variance = (sum((margin - mean) ** 2 for margin in margins)
                / (len(margins) - 1))
    return max(1, math.ceil(tests * Z95 * Z95 * variance / (mean * mean)))


def fig3_lines(service: str, results: list[CampaignResult]) -> list[Verdict]:
    """A service's Figure 3 cells over its per-seed results."""
    targets = PAPER_TARGETS.get(service)
    return [across_seeds(
        Claim(f"fig3.{service}.{rows[0].anomaly}", None,
              paper=targets and targets.prevalence[rows[0].anomaly]),
        [row.fraction for row in rows],
        [(row.tests_with_anomaly, row.total_tests) for row in rows])
        for rows in zip(*map(prevalence_rows, results))]


def seeds_table(verdicts: list[Verdict]) -> str:
    """One line per across-seed verdict (see :func:`across_seeds`)."""
    lines = [f"  {'':28s}{'mean':>8s}  {'min-max':17s}{'D':>6s}  "
             f"{'95 % interval':17s}{'kind':10s}{'paper':>6s}  inside"]
    for verdict in verdicts:
        interval = ("-" if verdict.interval is None else
                    "[{}, {}]".format(*map(_cell, verdict.interval)))
        lines.append(
            f"  {verdict.claim.id.split('.', 2)[-1]:28s}"
            f"{_cell(verdict.value):>8s}  "
            f"{'-'.join(map(_cell, verdict.spread)):17s}"
            f"{_cell(verdict.dispersion):>6s}  {interval:17s}"
            f"{verdict.kind or '-':10s}{_cell(verdict.claim.paper):>6s}  "
            f"{ {None: '-', True: 'yes', False: 'NO'}[verdict.paper_inside]}")
    return "\n".join(lines)


def experiments_region(per_seed: Mapping[int, list[Verdict]],
                       by_service: Mapping[str, list[CampaignResult]]
                       ) -> str:
    """EXPERIMENTS.md's generated region: each service's Figure 3
    cells as ``fleet --seeds`` prints them, then a table line per row
    with its across-seed mean, min-max, :func:`decision_size` and
    "holds at k of n"."""
    lines, held = ["```"], held_at(per_seed)
    for service, results in by_service.items():
        lines += [f"{service}: anomaly prevalence over {len(results)} "
                  "seed(s)", seeds_table(fig3_lines(service, results)), ""]
    tests = next(iter(by_service.values()))[0].config.num_tests
    lines[-1:] = ["```", "", "| Row | Source | Paper | Mean | Min-max "
                  "| n* | Holds |", "|---|---|---|---:|---:|---:|---|"]
    for verdicts in zip(*per_seed.values()):  # one row across seeds
        claim = verdicts[0].claim
        values = [verdict.value for verdict in verdicts
                  if verdict.applies and verdict.value is not None]
        row = across_seeds(claim, values) if values else Verdict(
            claim, spread=(None,))
        k, n = held.get(claim.id, (0, 0))
        size = decision_size(list(verdicts), tests)
        lines.append(f"| `{claim.id}` | {claim.source} | "
                     f"{_cell(claim.paper)} | {_cell(row.value)} | "
                     f"{'-'.join(map(_cell, row.spread))} | "
                     f"{'never' if size == math.inf else _cell(size)} | "
                     f"{f'at {k} of {n}' if n else 'n/a'} |")
    return "\n".join(lines) + "\n"


def region_disagreements(checked_in: str, regenerated: str) -> list[str]:
    """Where a checked-in :func:`experiments_region` and a regeneration
    disagree: a row not in :data:`CLAIMS`, missing or repeated; a row
    held at every seed that fails, or at none that holds, in the other."""
    cells, now = ([(row, n and (int(k), int(n))) for row, k, n in re.findall(
        r"^\| `([^`]+)` \|.*\| (?:at (\d+) of (\d+)|n/a) \|$", text, re.M)]
        for text in (checked_in, regenerated))
    now, listed = dict(now), Counter(row for row, _ in cells)
    ids = [claim.id for claim in CLAIMS]
    problems = [f"{row}: not a claim row" for row in listed if row not in ids]
    problems += [f"{row}: listed {listed[row]} times" for row in ids
                 if listed[row] != 1]
    for row, cell in cells:
        (k, n), (held, applies) = cell or (0, 0), now.get(row) or (0, 0)
        if n and (k == n and held < applies or k == 0 < held):
            problems.append(f"{row}: holds at {k} of {n} here, at "
                            f"{held} of {applies} when regenerated")
    return problems


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return "-" if value is None else str(value)


def claims_table(verdicts: list[Verdict]) -> str:
    """One line per verdict: claim, paper, measured, test, outcome."""
    held = sum(1 for verdict in verdicts if verdict.holds)
    header = (f"{'claim':64s}{'source':>9s}{'paper':>14s}"
              f"{'measured':>10s}  {'test':18s}outcome")
    lines = [f"{held} of {len(verdicts)} claims hold", header,
             "-" * len(header)]
    for verdict in verdicts:
        claim, limit = verdict.claim, verdict.limit
        test, outcome = "", "n/a"
        if verdict.applies:
            test = (f"in [{_cell(limit[0])}, {_cell(limit[1])}]"
                    if claim.op == "in" else f"{claim.op} {_cell(limit)}")
            outcome = "holds" if verdict.holds else "FAILS"
        lines.append(f"{claim.id:64s}{claim.source:>9s}"
                     f"{_cell(claim.paper):>14s}"
                     f"{_cell(verdict.value):>10s}  {test:18s}{outcome}")
    return "\n".join(lines)


# -- Rows --------------------------------------------------------------

def _prevalence(figure: str, service: str, anomaly: str, op: str | None,
                bound, suffix: str = "", versus: str | None = None,
                weight: float = 0.0) -> Claim:
    """A prevalence row; with ``versus``, the bound is that service's
    prevalence of the anomaly, times ``bound`` unless it is None."""
    factor = None
    if versus is not None:
        factor, bound, suffix = (bound, S("share", versus, anomaly),
                                 f".vs_{versus}")
    return Claim(f"{figure}.{service}.{anomaly}{suffix}",
                 S("share", service, anomaly), op, bound, factor,
                 paper=PAPER_TARGETS[service].prevalence[anomaly],
                 weight=weight)


def _located(figure: str, service: str, anomaly: str, split: str,
             bound: float, guarded: bool = False) -> Claim:
    """Guarded: read only once three tests show the anomaly."""
    return Claim(f"{figure}.{service}.{anomaly}.{split}",
                 S("located", service, anomaly, split), ">=", bound,
                 paper=f"mostly {split}",
                 guard=(lambda m: m.anomalous(service, anomaly) >= 3)
                 if guarded else None)


def _few_over_bursts(figure: str, service: str,
                     anomaly: str) -> list[Claim]:
    """Per agent that saw it: tests with 1-10 observations >= >10."""
    return [Claim(f"{figure}.{service}.{anomaly}.{agent}.few_over_bursts",
                  S("bucketed", service, anomaly, ("1", "2", "3-10"),
                    (agent,)), ">=",
                  S("bucketed", service, anomaly, (">10",), (agent,)),
                  guard=S("saw", service, anomaly, agent))
            for agent in AGENTS]


def _per_pair(figure: str, service: str, suffix: str, stat: str,
              op: str | None, bound, pairs, *args, paper=None,
              weight: float = 0.0) -> list[Claim]:
    return [Claim(f"{figure}.{service}.{'_'.join(pair)}{suffix}",
                  S(stat, service, pair, *args), op, bound,
                  paper=None if paper is None else paper[pair],
                  weight=weight)
            for pair in pairs]


def _figures() -> list[Claim]:
    p, gplus = _prevalence, PAPER_TARGETS[GPLUS]
    feed_rates = [S("rate", FEED, pair) for pair in ALL_PAIRS]
    # Weight 1.0: each Fig. 3 prevalence is fitted once, on the row
    # that reads exactly it (Google+'s and the Feed's ".present").
    rows = [p("fig3", BLOGGER, anomaly, "==", 0.0, weight=1.0)
            for anomaly in ALL_ANOMALIES]
    rows += [p("fig3", service, anomaly, ">", 0.0, ".present", weight=1.0)
             for service in (GPLUS, FEED) for anomaly in ALL_ANOMALIES]
    return rows + [
        p("fig3", GROUP, ORDER_DIVERGENCE, "==", 0.0, weight=1.0),
        p("fig3", GROUP, MONOTONIC_WRITES, ">=", 0.80, weight=1.0),
        p("fig3", GROUP, MONOTONIC_READS, "<=", 0.10, weight=1.0),
        p("fig3", GROUP, WRITES_FOLLOW_READS, "<=", 0.10, weight=1.0),
        p("fig3", FEED, READ_YOUR_WRITES, ">=", 0.95),
        p("fig3", FEED, READ_YOUR_WRITES, ">", 2, versus=GPLUS),
        p("fig3", FEED, MONOTONIC_WRITES, ">", 4, versus=GPLUS),
        p("fig3", GPLUS, MONOTONIC_WRITES, "<=", 0.20),
        p("fig3", GPLUS, READ_YOUR_WRITES, "in", (0.05, 0.45)),
        p("fig3", GPLUS, MONOTONIC_READS, "in", (0.05, 0.45)),
        p("fig3", FEED, MONOTONIC_READS, ">=", 0.25),
        p("fig3", FEED, ORDER_DIVERGENCE, ">=", 0.95),
        p("fig3", FEED, CONTENT_DIVERGENCE, ">=", 0.50),
        p("fig3", GPLUS, CONTENT_DIVERGENCE, ">=", 0.70),
        p("fig3", GPLUS, ORDER_DIVERGENCE, "in", (0.02, 0.35)),
        # Fig. 4: RYW mostly local on Google+, global on the Feed, and
        # the Feed's seen once or twice per agent, not in bursts.
        Claim("fig4.facebook_feed.read_your_writes.agent_tests",
              S("bucketed", FEED, READ_YOUR_WRITES,
                ("1", "2", "3-10", ">10")), ">", 0),
        _located("fig4", GPLUS, READ_YOUR_WRITES, "local", 0.5),
        _located("fig4", FEED, READ_YOUR_WRITES, "global", 0.5),
        *_few_over_bursts("fig4", FEED, READ_YOUR_WRITES),
        # Fig. 5: both Facebook services far above Google+; the Group's
        # same-second reversal is seen by every agent.
        p("fig5", FEED, MONOTONIC_WRITES, ">=", 0.60),
        p("fig5", GPLUS, MONOTONIC_WRITES, "<=", 0.25),
        p("fig5", GROUP, MONOTONIC_WRITES, ">", 3, versus=GPLUS),
        _located("fig5", GROUP, MONOTONIC_WRITES, "global", 0.6),
        _located("fig5", GPLUS, MONOTONIC_WRITES, "local", 0.5, True),
        # Fig. 6: mostly local; the Feed's "mostly detected a single
        # time per agent per test".
        p("fig6", GPLUS, MONOTONIC_READS, "in", (0.05, 0.50)),
        _located("fig6", GPLUS, MONOTONIC_READS, "local", 0.5, True),
        _located("fig6", FEED, MONOTONIC_READS, "local", 0.5, True),
        Claim("fig6.facebook_feed.monotonic_reads.singles_over_multis",
              S("bucketed", FEED, MONOTONIC_READS, ("1",)), ">=",
              S("bucketed", FEED, MONOTONIC_READS, ("3-10", ">10"))),
        # Fig. 7: the Feed most affected, the Group essentially never,
        # "only a few observations per agent in each test".
        p("fig7", FEED, WRITES_FOLLOW_READS, ">=", None, versus=GPLUS),
        p("fig7", FEED, WRITES_FOLLOW_READS, ">=", 0.10),
        p("fig7", GROUP, WRITES_FOLLOW_READS, "<=", 0.05),
        p("fig7", GPLUS, WRITES_FOLLOW_READS, ">=", 0.02),
        *_few_over_bursts("fig7", FEED, WRITES_FOLLOW_READS),
        # Fig. 8: Google+'s Ireland pairs near-ubiquitous, Oregon-Tokyo
        # (one datacenter) far below; the Feed high and uniform; the
        # Group rare and Tokyo-only; Blogger never.
        Claim("fig8.blogger.diverged_pairs",
              lambda m: len(m.pairs(BLOGGER).counts), "==", 0),
        *_per_pair("fig8", GPLUS, "", "rate", ">=", 0.70, IRELAND_PAIRS,
                   paper=gplus.pair_content, weight=1.0),
        Claim("fig8.googleplus.oregon_tokyo_vs_ireland",
              S("rate", GPLUS, OREGON_TOKYO), "<",
              _over(min, [S("rate", GPLUS, pair) for pair in IRELAND_PAIRS]),
              0.5, paper=gplus.pair_content[OREGON_TOKYO], weight=1.0),
        *_per_pair("fig8", FEED, "", "rate", ">=", 0.40, ALL_PAIRS,
                   paper=PAPER_TARGETS[FEED].pair_content, weight=1.0),
        Claim("fig8.facebook_feed.pair_spread",
              lambda m: (_over(max, feed_rates)(m)
                         - _over(min, feed_rates)(m)),
              "<=", 0.35, paper="uniform"),
        # At least two pair-tests at any size (the partition stretch's
        # one-test floor): the row fails below ~14 tests per template,
        # whatever its n* says.
        Claim("fig8.facebook_group.diverged_pair_tests",
              lambda m: sum(m.pairs(GROUP).counts.values()), "<=",
              lambda m: m.pairs(GROUP).total_tests, 0.15),
        Claim("fig8.facebook_group.pairs_without_tokyo",
              lambda m: sum(1 for pair in m.pairs(GROUP).counts
                            if "tokyo" not in pair), "==", 0),
        # Both Tokyo pairs diverge, but not at most the paper's ~1 %: the
        # partition stretch floors at one test (0.6 % at 180 tests).
        *_per_pair("fig8", GROUP, ".present", "rate", ">", 0.0,
                   TOKYO_PAIRS, paper=dict.fromkeys(TOKYO_PAIRS, "~1% each")),
        # Fig. 9: Google+'s Ireland pairs converge in seconds and
        # Oregon-Tokyo much faster (when it diverges at all); every Feed
        # pair converges, no slower than Google+; Blogger has none.
        # Window medians are read off CDF plots, so they weigh 0.1: a
        # tiebreaker, not a force that drags the fit from stated numbers.
        *_per_pair("fig9", GPLUS, ".converged", "converged", ">", 0,
                   IRELAND_PAIRS),
        *_per_pair("fig9", GPLUS, ".median", "median", ">=", 0.5,
                   IRELAND_PAIRS, paper=gplus.content_window_median,
                   weight=0.1),
        Claim("fig9.googleplus.oregon_tokyo_vs_ireland",
              S("median", GPLUS, OREGON_TOKYO), "<",
              _over(min, [S("median", GPLUS, pair)
                          for pair in IRELAND_PAIRS]),
              0.7, paper=gplus.content_window_median[OREGON_TOKYO],
              guard=lambda m: m.median(GPLUS, OREGON_TOKYO) is not None,
              weight=0.1),
        *_per_pair("fig9", FEED, ".converged", "converged", ">", 0,
                   ALL_PAIRS),
        Claim("fig9.facebook_feed.slowest_median.vs_googleplus",
              _over(max, [S("median", FEED, pair) for pair in ALL_PAIRS]),
              "<=", _over(max, [S("median", GPLUS, pair)
                                for pair in IRELAND_PAIRS])),
        Claim("fig9.facebook_group.tokyo_windows",
              lambda m: sum(m.converged(GROUP, pair, stuck=True)
                            for pair in TOKYO_PAIRS), ">", 0,
              paper="Tokyo slower"),
        Claim("fig9.blogger.window_pairs",
              lambda m: len(m.windows(BLOGGER, "content").samples),
              "==", 0),
        # Fig. 10: order divergence only on Google+ and the Feed; Google+
        # Ireland pairs take seconds, the Feed's often never converge.
        *(Claim(f"fig10.{service}.{name}",
                lambda m, service=service, field=field: len(getattr(
                    m.windows(service, "order"), field)), "==", 0)
          for service in (BLOGGER, GROUP)
          for name, field in (("window_pairs", "samples"),
                              ("unconverged_pairs", "unconverged"))),
        # A count, not a √n rate: at 180 tests the bound admits one
        # diverging test, and at a mean rate of 0.003 about one seed in
        # ten sees two (Poisson tail), whatever its n* says.
        Claim("fig10.googleplus.oregon_tokyo.order",
              S("rate", GPLUS, OREGON_TOKYO, "order"), "<=", 0.01,
              paper=gplus.pair_order[OREGON_TOKYO]),
        Claim("fig10.googleplus.ireland_windows",
              lambda m: len(m.ireland_order_windows()), ">", 0),
        Claim("fig10.googleplus.longest_ireland_window",
              lambda m: max(m.ireland_order_windows(), default=None),
              ">=", 2.0, paper="over 10 s"),
        *_per_pair("fig10", FEED, ".diverged", "converged", ">", 0,
                   ALL_PAIRS, "order", True),
        Claim("fig10.facebook_feed.unconverged_share",
              lambda m: sum(m.windows(FEED, "order")
                            .unconverged_fraction(pair)
                            for pair in ALL_PAIRS) / len(ALL_PAIRS),
              ">=", 0.3, paper="81-94%"),
    ]


#: Tables I/II: each template's ``PAPER_PLANS`` attributes, then per
#: service the paper's values (gaps in minutes; Google+'s Test 2 reads
#: per agent are the midpoint of the paper's 17-75).
_PLANS = {
    "table1": ("test1", ("read_period", "inter_test_gap",
                         "paper_num_tests"), {
        GPLUS: (0.3, 34, 1036), BLOGGER: (0.3, 20, 1028),
        FEED: (0.3, 5, 1020), GROUP: (0.3, 5, 1027)}),
    "table2": ("test2", ("fast_reads", "reads_per_agent",
                         "inter_test_gap", "paper_num_tests",
                         "fast_read_period", "slow_read_period"), {
        GPLUS: (14, 45, 17, 922, 0.3, 1.0),
        BLOGGER: (13, 20, 10, 1012, 0.3, 1.0),
        FEED: (20, 40, 5, 1012, 0.3, 1.0),
        GROUP: (20, 50, 5, 1126, 0.3, 1.0)}),
}


def _planned(table: str) -> list[Claim]:
    """``PAPER_PLANS`` holds the paper's configuration exactly."""
    template, attributes, services = _PLANS[table]
    return [Claim(f"{table}.{service}.{attribute}",
                  lambda m, plan=getattr(PAPER_PLANS[service], template),
                  attribute=attribute: getattr(plan, attribute), "==",
                  value * 60.0 if attribute == "inter_test_gap" else value,
                  paper=(f"{value} min" if attribute == "inter_test_gap"
                         else value))
            for service, values in services.items()
            for attribute, value in zip(attributes, values)]


def _tables_and_totals() -> list[Claim]:
    reads = {service: PAPER_TARGETS[service].reads_test1
             for service in (GPLUS, BLOGGER, FEED, GROUP)}
    # Google+ converges far slower, so its tests run the most reads;
    # the fast services sit in the paper's ~10-20 band.
    rows = _planned("table1") + [
        Claim(f"table1.googleplus.reads.vs_{other}", S("reads", GPLUS),
              ">", S("reads", other), factor, paper=reads[GPLUS])
        for other, factor in ((BLOGGER, 2.0), (FEED, 1.5), (GROUP, 2.0))]
    rows += [Claim(f"table1.{service}.reads", S("reads", service), "in",
                   (5.0, 25.0), paper=reads[service], weight=1.0)
             for service in (BLOGGER, FEED, GROUP)]
    # Agents complete exactly the configured number of reads.
    rows += _planned("table2") + [
        Claim(f"table2.{service}.reads", S("reads", service, "test2"),
              "==", values[1], paper=values[1])
        for service, values in _PLANS["table2"][2].items()]
    # Write counts are fixed by the test designs (6 per Test 1, 3 per
    # Test 2), and every campaign reads more than it writes.
    for service in reads:
        rows += [
            Claim(f"totals.{service}.test1_writes_not_6",
                  S("off_design", service, "test1", 6), "==", 0),
            Claim(f"totals.{service}.test2_writes_not_3",
                  S("off_design", service, "test2", 3), "==", 0),
            Claim(f"totals.{service}.writes",
                  S("total", service, "total_writes"), "==",
                  lambda m, service=service: (
                      6 * len(m.results[service].of_type("test1"))
                      + 3 * len(m.results[service].of_type("test2")))),
            Claim(f"totals.{service}.reads_over_writes",
                  S("total", service, "total_reads"), ">",
                  S("total", service, "total_writes")),
        ]
    # Google+ runs by far the most reads per Test 1 instance.
    return rows + [Claim(f"totals.googleplus.reads.vs_{other}",
                         S("reads", GPLUS), ">", S("reads", other),
                         paper=reads[GPLUS])
                   for other in (BLOGGER, FEED, GROUP)]


def _fit_rows() -> list[Claim]:
    """A weighted row for each published number no claim reads.

    The Group's RYW is one: its ``== 0`` reads 0-0.007 across seeds, so
    no campaign decides it (:func:`decision_size` "never").
    """
    gplus, feed = PAPER_TARGETS[GPLUS], PAPER_TARGETS[FEED]
    rows = [_prevalence("fig3", GROUP, anomaly, None, None, weight=1.0)
            for anomaly in (READ_YOUR_WRITES, CONTENT_DIVERGENCE)]
    for service, targets in ((GPLUS, gplus), (FEED, feed)):
        rows += _per_pair("fig8", service, ".order", "rate", None, None,
                          sorted(targets.pair_order), "order",
                          paper=targets.pair_order, weight=1.0)
    rows += _per_pair("fig9", FEED, ".median", "median", None, None,
                      sorted(feed.content_window_median),
                      paper=feed.content_window_median, weight=0.1)
    for service, targets in ((GPLUS, gplus), (FEED, feed)):
        rows += _per_pair("fig10", service, ".median", "median", None,
                          None, sorted(targets.order_window_median), "order",
                          paper=targets.order_window_median, weight=0.1)
    # Every Google+ reads claim also reads a second service.
    return rows + [Claim("table1.googleplus.reads", S("reads", GPLUS),
                         paper=gplus.reads_test1, weight=1.0)]


def _graded(service: str, test_type: str, metric: str, op: str, bound,
            above: int = 0) -> Claim:
    """An extension row on :meth:`Measured.graded`; "n/a" unless the
    campaign ran ``metric``."""
    return Claim(f"graded.{service}.{test_type}.{metric}"
                 + (f".over_{above}" if above else ""),
                 S("graded", service, test_type, metric, above), op, bound,
                 guard=lambda m: metric in m.results[service].config.metrics)


def _extensions() -> list[Claim]:
    relaxed, inversions = GRADED
    # Blogger's synchronous primary-backup store: nothing to relax and
    # nothing inverted under some admissible order, in either template.
    rows = [_graded(BLOGGER, test_type, metric, "==", 0.0)
            for test_type in ("test1", "test2") for metric in GRADED]
    return rows + [
        # Fig. 3's saturated Feed RYW cell separates: fewer Test 1
        # tests need any relaxation than miss an own write.
        _graded(FEED, "test1", relaxed, "<",
                S("share", FEED, READ_YOUR_WRITES)),
        # The Feed's views come back in rank order: the ranker inverts.
        _graded(FEED, "test2", inversions, ">=", 0.95),
        # Google+'s saturated content divergence separates by size: a
        # diverging Test 2 rarely needs k above 1.
        _graded(GPLUS, "test2", relaxed, "<=", 0.05, above=1),
        # The Group's same-second reversal inverts each agent's two
        # writes, which no admissible order undoes, while a Test 1
        # read rarely skips one.
        _graded(GROUP, "test1", inversions, ">=", 0.95),
        _graded(GROUP, "test1", relaxed, "<=", 0.05),
    ]


#: Every claim, in the paper's order (Figs. 3-10, Tables I/II, totals),
#: then the extension rows.
CLAIMS: tuple[Claim, ...] = (*_figures(), *_tables_and_totals(),
                             *_extensions())
#: The fit rows: objective terms only, in no claims table.
FIT_ROWS: tuple[Claim, ...] = tuple(_fit_rows())
