"""``repro.fleet.digest``: one canonical encoding, whichever path builds it.

``canonical_json`` skips the ``canonical()`` copy when a check says the
value is already lowered.  The differential property holds the two
paths to the same bytes on every input; the record test holds the
benchmarked path (``record_to_dict`` output) to the one that skips.
"""

import dataclasses
import enum
import json
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.fleet import digest
from repro.fleet.digest import canonical, canonical_json
from repro.io import record_to_dict
from repro.methodology import CampaignConfig, run_campaign
from repro.relations import metric_names


def reference_json(value) -> str:
    return json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))


class Label(str):
    pass


class Count(int):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclasses.dataclass(frozen=True)
class Point:
    x: Any
    y: Any


@dataclasses.dataclass(frozen=True)
class Tagged:
    label: str
    items: tuple = ()


plain_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text())
scalars = st.one_of(
    plain_scalars,
    st.text().map(Label),
    st.integers().map(Count),
    st.sampled_from(Level),
)
keys = st.one_of(st.text(), st.integers(), st.booleans(), st.none(),
                 st.floats(), st.text().map(Label))
hashables = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=3),
        st.builds(Point, children, children),
    ),
    max_leaves=6,
)
values = st.recursive(
    st.one_of(scalars, st.sets(hashables, max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(st.text(), children, max_size=4),
        st.builds(Point, children, children),
        st.builds(Tagged, st.text(),
                  st.lists(children, max_size=3).map(tuple)),
    ),
    max_leaves=20,
)
#: Values the check accepts: the path that skips ``canonical()``.
lowered_values = st.recursive(
    plain_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_canonical_json_is_the_sorted_compact_dump_of_canonical(value):
    assert canonical_json(value) == reference_json(value)


@settings(max_examples=200, deadline=None)
@given(lowered_values)
def test_lowered_values_encode_identically_without_the_copy(value):
    expected = reference_json(value)
    with mock.patch.object(digest, "canonical",
                           side_effect=AssertionError("copied")):
        assert canonical_json(value) == expected


@pytest.mark.parametrize("value, encoded", [
    # Keys become str before they are sorted: not 1, 2, 10.
    ({1: "a", 10: "b", 2: "c"}, '{"1":"a","10":"b","2":"c"}'),
    # str(True), not JSON's true.
    ({True: 1}, '{"True":1}'),
    ({"b": (1, 2.5), "a": [None, False]},
     '{"a":[null,false],"b":[1,2.5]}'),
    ({}, "{}"), ([], "[]"), ((), "[]"), (set(), "[]"),
    ({"k": {}}, '{"k":{}}'),
    (Point(1, (2,)), '{"__dataclass__":"Point","x":1,"y":[2]}'),
    ({3, 20, 100}, "[100,20,3]"),
    ({"level": Level.HIGH, "label": Label("x")},
     '{"label":"x","level":2}'),
])
def test_pinned_encodings(value, encoded):
    assert canonical_json(value) == encoded


@pytest.mark.parametrize("value, type_name", [
    ({"f": lambda: 1}, "function"),
    ([object()], "object"),
    ({"nested": {"deep": [b"bytes"]}}, "bytes"),
    (Point(1, complex(1, 2)), "complex"),
    (Point, "type"),
])
def test_a_value_with_no_content_determined_encoding_is_refused(
        value, type_name):
    for encode in (canonical_json, canonical):
        with pytest.raises(
                ConfigurationError,
                match=f"no canonical encoding for {type_name} objects"):
            encode(value)


@pytest.mark.parametrize("service", ["googleplus", "facebook_feed"])
def test_campaign_records_need_no_lowering(service):
    """The path the benchmark times is the one that skips the copy: a
    record field that needs lowering fails here, instead of silently
    costing every digest, shard line and world signature 4x."""
    result = run_campaign(service, CampaignConfig(
        num_tests=3, seed=5, metrics=metric_names()))
    records = [record_to_dict(record) for record in result.records]
    expected = [reference_json(record) for record in records]
    # Non-trivial records: the ``details`` payloads are on the path.
    assert any(found for record in records
               for found in record["observations"].values())
    assert any(metric["samples"] for record in records
               for metric in record["metrics"])

    with mock.patch.object(
            digest, "canonical",
            side_effect=AssertionError("a record needed canonical()")):
        assert [canonical_json(record)
                for record in records] == expected
