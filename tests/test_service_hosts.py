"""What every service serves, and the one place that serves it.

A campaign only ever sees a service through its API hosts, so the
table below pins each service's hosts as the network sees them: each
API host in attach order with its region, that host's routes in
registration order (method, path, processing median), how many rate
limiters the service's hosts use, and the seed of each endpoint's RNG
(which fixes every processing-delay draw).  The rows were recorded
from the per-service host builders that ``OnlineService._serve_host``
replaced; any drift here moves the golden signatures too.

The second half walks the syntax trees of ``src/repro`` and
``examples``: a ``ServiceEndpoint`` is constructed only in
``repro.services.base``, and a ``Router`` only there, in the campaign
service (``repro.serve``) and in ``repro.webapi`` itself.
"""

import ast
from pathlib import Path

import pytest

from repro.methodology import MeasurementWorld
from repro.scenario import load_scenario
from repro.scenario.registry import scenario_params
from repro.webapi.endpoint import ServiceEndpoint
from repro.webapi.router import Router

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "examples" / "scenarios"

_BLOG = "/blogs/shared/posts"
_MOMENTS = "/plusDomains/moments"
_GROUP = "/group/shared/feed"
_KV = "/kv/events"
_GOSSIP = "/scenario/events"


def _routes(post_path, write_median, get_path, read_median):
    return (("POST", post_path, write_median),
            ("GET", get_path, read_median))


#: service -> (limiters, ((api host, region, routes, endpoint RNG
#: seed), ...)) for a world built at seed 0.
HOSTS = {
    "blogger": (1, (
        ("blogger-api", "virginia", _routes(_BLOG, 0.17, _BLOG, 0.04),
         9008040377604886680),
    )),
    "googleplus": (1, (
        ("gplus-api-us", "oregon",
         _routes(_MOMENTS, 0.1, _MOMENTS, 0.05), 17920175798682867298),
        ("gplus-api-eu", "ireland",
         _routes(_MOMENTS, 0.1, _MOMENTS, 0.05), 1419463210882519829),
    )),
    "facebook_feed": (1, (
        ("fbfeed-api", "virginia",
         _routes("/me/feed", 0.1, "/me/home", 0.06),
         10086356788189009887),
    )),
    "facebook_group": (1, (
        ("fbgroup-api-us", "virginia",
         _routes(_GROUP, 0.05, _GROUP, 0.06), 17335549259286759850),
        ("fbgroup-api-tokyo", "tokyo",
         _routes(_GROUP, 0.05, _GROUP, 0.06), 9041069271358800879),
    )),
    "quorum_kv": (1, (
        ("kv-api-oregon", "oregon",
         _routes(_KV, 0.03, _KV, 0.02), 1563140256409186425),
        ("kv-api-tokyo", "tokyo",
         _routes(_KV, 0.03, _KV, 0.02), 1154188402674118427),
        ("kv-api-ireland", "ireland",
         _routes(_KV, 0.03, _KV, 0.02), 6437718346996295274),
    )),
    "gossip_mesh": (1, (
        ("gossip_mesh-api-oregon", "oregon",
         _routes(_GOSSIP, 0.03, _GOSSIP, 0.02), 11145587728720794611),
        ("gossip_mesh-api-tokyo", "tokyo",
         _routes(_GOSSIP, 0.03, _GOSSIP, 0.02), 17276669496578973269),
        ("gossip_mesh-api-ireland", "ireland",
         _routes(_GOSSIP, 0.03, _GOSSIP, 0.02), 7616774386912136796),
    )),
}


def _world(service):
    if service == "gossip_mesh":
        spec = load_scenario(SCENARIO_DIR / "gossip_mesh.toml")
        return MeasurementWorld(spec.name, seed=0, scenario=spec,
                                service_params=scenario_params(spec))
    return MeasurementWorld(service, seed=0)


def served_hosts(monkeypatch, service):
    """(limiters, host rows) of ``service``, as its endpoints were
    constructed and its routers filled while the world was built."""
    registered: dict[int, list] = {}
    endpoints: list[ServiceEndpoint] = []
    add_route = Router.add_route
    construct = ServiceEndpoint.__init__

    def recording_add_route(router, spec):
        registered.setdefault(id(router), []).append(
            (spec.method, spec.pattern, spec.processing_delay_median))
        return add_route(router, spec)

    def recording_init(endpoint, *args, **kwargs):
        construct(endpoint, *args, **kwargs)
        endpoints.append(endpoint)

    monkeypatch.setattr(Router, "add_route", recording_add_route)
    monkeypatch.setattr(ServiceEndpoint, "__init__", recording_init)
    world = _world(service)
    rows = tuple(
        (endpoint.host, world.topology.region_of(endpoint.host).name,
         tuple(registered[id(endpoint.router)]), endpoint._rng.seed)
        for endpoint in endpoints)
    limiters = {id(endpoint._rate_limiter) for endpoint in endpoints}
    return len(limiters), rows


@pytest.mark.parametrize("service", sorted(HOSTS))
def test_service_hosts_are_pinned(monkeypatch, service):
    assert served_hosts(monkeypatch, service) == HOSTS[service]


# -- Where hosts are built ----------------------------------------------

#: class constructed -> modules (or packages, by prefix) that may.
BUILDERS = {
    "ServiceEndpoint": ("repro.services.base",),
    "Router": ("repro.services.base", "repro.serve", "repro.webapi"),
}


def constructions(source: str) -> list[tuple[int, str]]:
    """(line, class) of each ``ServiceEndpoint(`` / ``Router(`` call,
    by bare name or attribute (``webapi.Router(``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None)
        if name in BUILDERS:
            found.append((node.lineno, name))
    return found


def _module(path: Path) -> str:
    if path.is_relative_to(ROOT / "src"):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        return ".".join(parts[:-1] if parts[-1] == "__init__"
                        else parts)
    return path.relative_to(ROOT).as_posix()


def _allowed(module: str, name: str) -> bool:
    return any(module == owner or module.startswith(owner + ".")
               for owner in BUILDERS[name])


def test_hosts_are_built_only_by_the_front_door():
    files = [*sorted((ROOT / "src" / "repro").rglob("*.py")),
             *sorted((ROOT / "examples").rglob("*.py"))]
    stray = [f"{_module(path)}:{line} {name}("
             for path in files
             for line, name in constructions(path.read_text())
             if not _allowed(_module(path), name)]
    assert stray == [], (
        "serve a service's API host with OnlineService._serve_host: "
        + "; ".join(stray))


def test_the_walk_sees_both_spellings():
    source = '''
from repro import webapi
from repro.webapi import Router, ServiceEndpoint

def build(sim, network):
    ServiceEndpoint(sim, network, "h", accounts=None)
    webapi.Router()
    router_factory = Router
'''
    assert constructions(source) == [(6, "ServiceEndpoint"),
                                     (7, "Router")]
