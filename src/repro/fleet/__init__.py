"""Deterministic parallel campaign execution (the fleet engine).

The paper's credibility rests on ~1,000 test instances per service per
template; this package is how the reproduction runs that scale.  A
:class:`FleetSpec` expands replicates, parameter sweeps, and service
matrices into independent shard jobs — each a pure function of
``(service, config, seed)`` — and :func:`run_fleet` executes them on a
worker-process pool whose merged output is bit-identical to the serial
path (the :func:`fleet_signature` golden digest is the enforced
contract).  Completed shards persist through an :class:`ArtifactStore`
and a re-invocation resumes, skipping every digest-valid shard.

See ``docs/fleet.md`` for the job model, the determinism guarantee,
the store layout, and resume semantics.

Quickstart::

    from repro.fleet import FleetSpec, run_fleet
    from repro.methodology import CampaignConfig

    spec = FleetSpec(services=("googleplus", "blogger"),
                     base_config=CampaignConfig(num_tests=100),
                     seeds=(1, 2, 3))
    outcome = run_fleet(spec, jobs=4, out_dir="campaign-artifacts")
    for job, result in zip(outcome.jobs, outcome.results):
        print(job.service, job.seed, result.summary())
"""

from repro._facade import facade

__all__, __getattr__, __dir__ = facade(__name__, {
    ".spec": ("FleetSpec", "ShardJob", "derive_fleet_seeds"),
    ".executor": (
        "run_fleet", "execute_shard", "FleetOutcome", "DEFAULT_MAX_RETRIES",
    ),
    ".store": ("ArtifactStore", "STORE_VERSION"),
    ".digest": (
        "fleet_signature", "campaign_signature", "records_digest",
        "canonical_json",
    ),
    "repro.obs.events": (
        "FleetEvent", "FleetStarted", "FleetCompleted", "ShardEvent",
        "ShardStarted", "ShardTestChecked", "ShardCompleted", "ShardRetried",
        "ShardSkipped", "EventCallback", "render_event",
    ),
})
