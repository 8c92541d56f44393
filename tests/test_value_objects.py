"""The value-object contract of the package's record types.

``Digraph``, ``BitMatrix`` and ``ChromaticSeries`` are immutable values:
their repr names every field, they are equal and hash alike exactly when
their class and fields agree, and they survive pickling and deep copies.
``IdentityCheck`` and ``AsymptoticConstants`` are records whose fields
read by name.
"""

import copy
import pickle

import pytest

from cubecovers import (BitMatrix, ChromaticSeries, Digraph, compute_constants,
                        verify_identities)

# The class, constructor arguments with a list among them, and the repr.
VALUES = [pytest.param(cls, args, text, id=cls.__name__) for cls, args, text in (
    (Digraph, (2, [2, 0]), "Digraph(n=2, rows=(2, 0))"),
    (BitMatrix, (2, [1, 3]), "BitMatrix(n=2, rows=(1, 3))"),
    (ChromaticSeries, ([0, 1, 2],), "ChromaticSeries(coeffs=(0, 1, 2))"),
)]


def _tuple_args(args):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


@pytest.mark.parametrize("cls,args,text", VALUES)
def test_repr_names_every_field(cls, args, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,text", VALUES)
def test_equal_and_hashed_alike_from_a_list_or_a_tuple(cls, args, text):
    from_list, from_tuple = cls(*args), cls(*_tuple_args(args))
    assert from_list == from_tuple
    assert hash(from_list) == hash(from_tuple)
    assert len({from_list, from_tuple}) == 1


@pytest.mark.parametrize("cls,args,text", VALUES)
def test_never_equal_to_a_plain_tuple(cls, args, text):
    value, fields = cls(*args), _tuple_args(args)
    assert value != fields
    assert fields != value
    assert value != fields[0]


def test_unequal_across_classes_with_the_same_fields():
    assert Digraph(2, (2, 0)) != BitMatrix(2, (2, 0))
    assert BitMatrix(2, (2, 0)) != Digraph(2, (2, 0))
    assert Digraph(0, ()) != BitMatrix(0, ())
    assert Digraph(2, (2, 0)) != Digraph(2, (0, 1))


@pytest.mark.parametrize("cls,args,text", VALUES)
def test_attributes_cannot_be_set_or_deleted(cls, args, text):
    value = cls(*args)
    field = text[text.index("(") + 1:text.index("=")]  # the first field
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("cls,args,text", VALUES)
def test_pickle_and_deepcopy_round_trip(cls, args, text):
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is cls and back == value and repr(back) == text
    for back in (copy.deepcopy(value), copy.copy(value)):
        assert type(back) is cls and back == value and repr(back) == text


def test_identity_check_fields_read_by_name():
    first, second = verify_identities(3)
    assert (first.name, first.order, first.passed, first.first_failure) == (
        "alternating-inverse", 3, True, None)
    assert second.name == "half-argument-decomposition"


def test_asymptotic_constants_fields_read_by_name():
    c = compute_constants()
    assert -1.49 < c.alpha < -1.48
    assert 1.74 < c.dag_prefactor < 1.75
    assert 2.19 < c.orientable_prefactor < 2.20
    assert c.ratio_factor == c.orientable_prefactor / c.dag_prefactor
    assert (c.truncation, c.tolerance, c.newton_iterations) == (30, 1e-13, 4)
