"""Fuzz `parse` with mutated manifests: it returns a Manifest or raises
ParseError, and nothing else.

The seeds are small hopf, yd and braided manifests.  A mutation drops a key
or list item, puts a value of another type in a node's place, sets an
integer node to another integer, or shortens or lengthens a list.  Mutated
integers stay in [-2, 64]; test_io_cli checks that a large `field` order
is refused before `cyclotomic_coeffs` runs.
"""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcheck.cyclotomic import make_field
from hopfcheck.families import group_algebra, sweedler
from hopfcheck.io import Manifest, ParseError, manifest_for, parse, serialize
from hopfcheck.yetter_drinfeld import ordinary_to_braided, trivial_yd

SEEDS = {
    "hopf": serialize(manifest_for(sweedler())),
    "yd": serialize(manifest_for(trivial_yd(sweedler(), 2))),
    "braided": serialize(
        manifest_for(ordinary_to_braided(group_algebra(2, make_field(1)), sweedler()))
    ),
}

SMALL_INTS = st.integers(-2, 64)
OTHER_VALUES = st.one_of(
    SMALL_INTS,
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["1/0", "1/2", "-3", "x"]),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(SMALL_INTS, max_size=3),
    st.dictionaries(st.text(max_size=3), SMALL_INTS, max_size=2),
)


def _paths(node, path=()):
    """The path of every node below the root, parents before children."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_manifests(draw):
    doc = json.loads(SEEDS[draw(st.sampled_from(sorted(SEEDS)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("drop", "retype", "int", "shorten", "extend")))
        paths = list(_paths(doc))
        if op == "int":
            paths = [p for p in paths if type(_parent(doc, p)[p[-1]]) is int]
        elif op in ("shorten", "extend"):
            paths = [p for p in paths if isinstance(_parent(doc, p)[p[-1]], list)]
        if not paths:
            continue
        path = draw(st.sampled_from(paths))
        parent, key = _parent(doc, path), path[-1]
        node = parent[key]
        if op == "drop":
            del parent[key]
        elif op == "retype":
            parent[key] = draw(OTHER_VALUES)
        elif op == "int":
            parent[key] = draw(SMALL_INTS)
        elif op == "shorten" and node:
            del node[draw(st.integers(0, len(node) - 1))]
        elif op == "extend":
            extra = draw(st.sampled_from(node)) if node else draw(OTHER_VALUES)
            node.append(copy.deepcopy(extra))
    return json.dumps(doc).encode()


def test_seeds_parse():
    for kind, data in SEEDS.items():
        manifest = parse(data)
        assert manifest.object_kind == kind
        assert serialize(manifest) == data


@settings(max_examples=400, deadline=None)
@given(mutated_manifests())
def test_parse_returns_or_raises_parse_error(data):
    try:
        manifest = parse(data)
    except ParseError:
        return
    assert isinstance(manifest, Manifest)
