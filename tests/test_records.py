"""The package's value types are records: NamedTuple classes that compare
like frozen dataclasses (see lang.record)."""

import itertools

import pytest

from deladas import ddd, evaluator, fabric, lang, madme, model, solver


def record_types():
    """Every public tuple class of the package."""
    out = []
    for module in (lang, model, evaluator, solver, ddd, fabric, madme):
        for name, obj in vars(module).items():
            if (isinstance(obj, type) and issubclass(obj, tuple)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                out.append(obj)
    return out


RECORDS = record_types()


def sample(cls, offset=0):
    return cls(*range(offset, offset + len(cls._fields)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_is_a_record_with_fields(cls):
    # A record with no fields would be an empty, hence falsy, tuple.
    assert cls._fields
    assert cls.__eq__ is lang.And.__eq__


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_hash_and_immutability(cls):
    r = sample(cls)
    assert r == sample(cls) and not r != sample(cls)
    assert r != sample(cls, 1) and not r == sample(cls, 1)
    assert r != tuple(r) and tuple(r) != r and not r == tuple(r)
    assert hash(r) == hash(tuple(r))
    with pytest.raises(AttributeError):
        setattr(r, cls._fields[0], -1)


def test_types_with_equal_fields_differ():
    pairs = [(a, b) for a, b in itertools.combinations(RECORDS, 2)
             if len(a._fields) == len(b._fields)]
    names = {(a.__name__, b.__name__) for a, b in pairs}
    assert {("And", "Or"), ("Unwire", "Wire"), ("Terminate", "Instantiate"),
            ("CrashHost", "HostFailureSuspected"),
            ("ConstraintError", "NoOp")} <= names
    for a, b in pairs:
        assert sample(a) != sample(b) and not sample(a) == sample(b)
        assert sample(b) != sample(a) and not sample(b) == sample(a)


def test_merge_rejects_a_constraintset_differing_in_and_or():
    goal = ("constraintset g = constraintset {{ forall host h in deployment"
            "(card(instancesof Router in h) = 1 {} "
            "card(instancesof Client in h) = 1) }}")
    with_and = lang.parse(goal.format("and"))
    with_or = lang.parse(goal.format("or"))
    with pytest.raises(lang.ValidationError, match="conflicting"):
        lang.merge_documents(with_and, with_or)
