"""Tests for the declarative routing layer (repro.webapi.router).

Its guarantees under test: routes resolve by exact ``(method, path)``
dict lookup, and a conflicting route or name fails at registration
time.
"""

import pytest

from repro.errors import ConfigurationError
from repro.webapi import RouteSpec, Router


def handler(request, account=None):
    return {"ok": True}


class TestRouteSpec:
    def test_default_name_is_method_and_pattern(self):
        spec = RouteSpec("GET", "/posts", handler)
        assert spec.name == "GET /posts"
        named = RouteSpec("GET", "/posts", handler, name="posts.list")
        assert named.name == "posts.list"

    def test_rejects_unknown_method_and_relative_pattern(self):
        with pytest.raises(ConfigurationError):
            RouteSpec("PATCH", "/posts", handler)
        with pytest.raises(ConfigurationError):
            RouteSpec("GET", "posts", handler)


class TestRouterRegistration:
    def test_exact_routes_resolve_by_dict_lookup(self):
        router = Router()
        spec = router.add("GET", "/feed", handler)
        assert router.resolve("GET", "/feed") is spec
        assert router.resolve("POST", "/feed") is None
        assert router.resolve("GET", "/feed/extra") is None

    def test_same_shape_conflict_raises(self):
        router = Router()
        router.add("GET", "/posts", handler)
        with pytest.raises(ConfigurationError):
            router.add("GET", "/posts", handler, name="again")
        # A different method is a different route.
        router.add("POST", "/posts", handler)

    def test_duplicate_name_raises(self):
        router = Router()
        router.add("GET", "/a", handler, name="thing")
        with pytest.raises(ConfigurationError):
            router.add("GET", "/b", handler, name="thing")

    def test_len_and_routes_enumeration(self):
        router = Router()
        router.add("GET", "/b", handler)
        router.add("POST", "/a", handler)
        router.add("GET", "/a", handler)
        assert len(router) == 3
        assert [(spec.pattern, spec.method)
                for spec in router.routes()] == [
            ("/a", "GET"), ("/a", "POST"), ("/b", "GET")
        ]

    def test_delay_overrides_are_kept(self):
        router = Router()
        spec = router.add("POST", "/posts", handler,
                          processing_delay_median=0.08,
                          processing_delay_sigma=0.3)
        assert spec.processing_delay_median == 0.08
        assert spec.processing_delay_sigma == 0.3
