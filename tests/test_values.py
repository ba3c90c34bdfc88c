"""The package's value classes behave as frozen dataclasses: construction,
equality, hashing, repr, immutability, pickle and copy; importing the
package loads neither ``dataclasses`` nor what it imports."""

import copy
import pickle
from fractions import Fraction

import pytest

from helpers import fresh_modules
from plotkin_wef import (
    BinaryMatrix,
    Branch,
    ChannelPoint,
    Leaf,
    MonteCarloEstimate,
    WeightEnumerator,
    rm_tree,
)

# (positional, keyword, an unequal value of the class, repr, field names)
CASES = {
    "WeightEnumerator": (
        lambda: WeightEnumerator(2, (1, Fraction(1, 2), 0)),
        lambda: WeightEnumerator(length=2, coeffs=(1, Fraction(1, 2), 0)),
        WeightEnumerator(2, (1, 0, 1)),
        "WeightEnumerator(length=2, coeffs=(Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)))",
        ("length", "coeffs"),
    ),
    "Leaf": (
        lambda: Leaf(True),
        lambda: Leaf(active=True),
        Leaf(False),
        "Leaf(active=True)",
        ("active",),
    ),
    "Branch": (
        lambda: Branch(Leaf(False), Leaf(True)),
        lambda: Branch(left=Leaf(False), right=Leaf(True)),
        Branch(Leaf(True), Leaf(True)),
        "Branch(left=Leaf(active=False), right=Leaf(active=True))",
        ("left", "right"),
    ),
    "ChannelPoint": (
        lambda: ChannelPoint(0.5, 3.0),
        lambda: ChannelPoint(rate=0.5, ebn0_db=3.0),
        ChannelPoint(0.5, 2.0),
        "ChannelPoint(rate=0.5, ebn0_db=3.0)",
        ("rate", "ebn0_db"),
    ),
    "BinaryMatrix": (
        lambda: BinaryMatrix(3, (5, 2)),
        lambda: BinaryMatrix(n=3, rows=(5, 2)),
        BinaryMatrix(3, (5,)),
        "BinaryMatrix(n=3, rows=(5, 2))",
        ("n", "rows"),
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_positional_and_keyword_construction_are_equal_and_hash_equal(case):
    positional, keyword, other, _, _ = case
    a, b = positional(), keyword()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert not a != b
    assert a != other


def test_values_of_another_class_are_unequal(case):
    value, fields = case[0](), case[4]
    for _, _, other, _, _ in CASES.values():
        if type(other) is not type(value):
            assert value != other and other != value
    assert value != tuple(getattr(value, name) for name in fields)
    assert value != None  # noqa: E711


def test_repr_is_the_dataclass_text(case):
    positional, _, _, text, _ = case
    assert repr(positional()) == text


def test_assignment_and_deletion_raise(case):
    value, fields = case[0](), case[4]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == case[0]()


def test_pickle_and_copy_round_trip(case):
    value = case[0]()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        again = pickle.loads(pickle.dumps(value, protocol))
        assert again == value and hash(again) == hash(value)
        assert type(again) is type(value)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def test_pickled_tree_keeps_its_length_dimension_and_sharing():
    tree = rm_tree(2, 6)
    again = pickle.loads(pickle.dumps(tree))
    assert again == tree and hash(again) == hash(tree)
    assert (again.length, again.dimension) == (tree.length, tree.dimension)
    # rm_tree(1, 4) is both tree.left.right and tree.right.left; pickle
    # keeps it one object.
    assert tree.left.right is tree.right.left
    assert again.left.right is again.right.left
    assert copy.deepcopy(tree) == tree


def test_monte_carlo_estimate_unpacks_as_a_pair():
    spectrum = WeightEnumerator(1, (1, 1))
    estimate = MonteCarloEstimate(spectrum, (0.0, 0.5))
    first, second = estimate
    assert (first, second) == (spectrum, (0.0, 0.5))
    assert estimate.spectrum is spectrum and estimate.stderrs == (0.0, 0.5)
    assert MonteCarloEstimate(spectrum=spectrum, stderrs=(0.0, 0.5)) == estimate
    assert repr(estimate) == f"MonteCarloEstimate(spectrum={spectrum!r}, stderrs=(0.0, 0.5))"
    assert pickle.loads(pickle.dumps(estimate)) == estimate
    assert copy.deepcopy(estimate) == estimate


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    loaded = fresh_modules("import plotkin_wef.cli")
    assert "plotkin_wef.cli" in loaded
    assert not {"dataclasses", "inspect", "typing"} & loaded
