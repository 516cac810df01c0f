"""Value semantics shared by every record in the package.

Each record derives from ``tuning.Record``: one shared ``__init__``,
equality, hash and repr by field, and no assignment or deletion after
construction. One small valid instance per record class checks all of
it, together with a variant that differs in one field.
"""

import pickle

import numpy as np
import pytest

from memaccel import accel, certify, dynamics, polyroots, spectral, tuning
from memaccel.tuning import Record

PATH3 = spectral.WeightedGraph(3, ((0, 1, 1.0), (1, 2, 2.0)))
ZEROS = np.zeros(2)

# class -> (fields of an instance, in declaration order; one changed field)
RECORDS = {
    tuning.SpectralInterval: (dict(lo=0.1, hi=2.0), dict(hi=3.0)),
    tuning.SpectralSet: (dict(intervals=(tuning.SpectralInterval(0.1, 0.2),), points=(1.0,)),
                         dict(points=(1.5,))),
    tuning.Gains: (dict(M=2, alpha=0.5, betas=(-0.1,)), dict(alpha=0.6)),
    tuning.TuningResult: (dict(gains=tuning.Gains(2, 0.5, (-0.1,)), mu=0.5, nu_star=0.27),
                          dict(mu=0.0)),
    accel.GuaranteeReport: (dict(nu=0.5, nu_lo=0.49, worst_lambda=1.0, samples=((1.0, 0.49),)),
                            dict(nu=0.6)),
    polyroots.RealPolynomial: (dict(coeffs=(1.0, -2.0, 1.0)), dict(coeffs=(1.0, 2.0))),
    polyroots.ComplexRootSet: (dict(roots=(1 + 0j, 1 + 0j), residuals=(0.0, 0.0)),
                               dict(residuals=(0.0, 1e-16))),
    certify.ClaimCoeffs: (dict(M=2, nu=0.5, a=(0.1, 0.2)), dict(nu=0.4)),
    certify.Prop8Result: (dict(kind="unit_circle_root", root=1j), dict(root=-1j)),
    certify.WitnessReport: (dict(theta=0.5, root=1 + 0j, scanned=3), dict(scanned=4)),
    certify.PartitionField: (dict(re=np.array([-1.0, 1.0]), im=np.array([-1.0, 1.0]),
                                  type_mask=np.zeros((2, 2), int),
                                  phase_match=np.zeros((2, 2), bool),
                                  roots_p1=(1j, -1j), roots_p2=(2 + 0j,), theta=0.5),
                             dict(theta=0.6)),
    spectral.WeightedGraph: (dict(n=3, edges=PATH3.edges), dict(n=4)),
    spectral.LaplacianMatrix: (dict(graph=PATH3), dict(graph=spectral.WeightedGraph(2, ()))),
    dynamics.IterationProblem: (dict(A=np.array([[2.0]]), b=np.array([0.0]),
                                     x0=np.array([1.0])),
                                dict(x0=np.array([2.0]))),
    dynamics.DropSchedule: (dict(graph=PATH3, drops={0: frozenset({(0, 1)})}),
                            dict(drops={1: frozenset({(0, 1)})})),
    dynamics.SimTrace: (dict(states=np.zeros((2, 1)), residuals=ZEROS, diverged_at=None),
                        dict(diverged_at=1)),
}


def _hash_or_none(values):
    try:
        return hash(values)
    except TypeError:
        return None


def test_every_record_is_covered():
    assert set(Record.__subclasses__()) == set(RECORDS)
    # Every field too, in order: adding, dropping or reordering one is a
    # deliberate edit of RECORDS.
    assert {cls: tuple(fields) for cls, (fields, _) in RECORDS.items()} == {
        cls: cls._fields for cls in RECORDS}


@pytest.fixture(params=list(RECORDS), ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    fields, change = RECORDS[cls]
    return cls, fields, change


class TestRecord:
    def test_keyword_equals_positional(self, case):
        cls, fields, _ = case
        assert cls(**fields) == cls(*fields.values())

    def test_equality_and_hash_by_field(self, case):
        cls, fields, change = case
        r, same = cls(**fields), cls(**fields)
        assert r == same and not r != same
        assert r != cls(**{**fields, **change})
        assert r != tuple(getattr(r, k) for k in fields)
        expected = _hash_or_none(tuple(getattr(r, k) for k in fields))
        if expected is None:
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == hash(same) == expected
            assert len({r, same}) == 1

    def test_repr_names_every_field(self, case):
        cls, fields, _ = case
        r = cls(**fields)
        body = ", ".join(f"{k}={getattr(r, k)!r}" for k in fields)
        assert repr(r) == f"{cls.__name__}({body})"

    def test_immutable(self, case):
        cls, fields, _ = case
        r = cls(**fields)
        first = next(iter(fields))
        before = getattr(r, first)
        with pytest.raises(AttributeError):
            setattr(r, first, before)
        with pytest.raises(AttributeError):
            delattr(r, first)
        with pytest.raises(AttributeError):
            r.not_a_field = 1
        assert getattr(r, first) is before and not hasattr(r, "not_a_field")

    def test_argument_errors(self, case):
        cls, fields, _ = case
        first, value = next(iter(fields.items()))
        args = tuple(fields.values())
        with pytest.raises(TypeError, match="multiple values"):
            cls(*args, **{first: value})
        with pytest.raises(TypeError, match="unexpected argument 'bogus'"):
            cls(*args, bogus=1)
        with pytest.raises(TypeError, match="arguments"):
            cls(*args, None)
        required = [k for k in fields if not hasattr(cls, k)]
        if required:
            with pytest.raises(TypeError, match=f"missing argument '{required[-1]}'"):
                cls(**{k: v for k, v in fields.items() if k != required[-1]})
        else:
            assert cls() == cls(*(getattr(cls, k) for k in fields))

    def test_pickle_round_trip(self, case):
        cls, fields, _ = case
        r = cls(**fields)
        back = pickle.loads(pickle.dumps(r))
        assert type(back) is cls
        for k in fields:
            np.testing.assert_equal(getattr(back, k), getattr(r, k))
        assert repr(back) == repr(r)
        assert back == r


# class -> fields with arrays of two or more entries as a function of
# (n, the last entry of the first array field), so that n + 1 changes a shape
ARRAY_RECORDS = {
    dynamics.IterationProblem: lambda n, last: dict(
        A=np.diag(np.r_[np.ones(n - 1), last]), b=np.zeros(n), x0=np.arange(n, dtype=float)),
    dynamics.SimTrace: lambda n, last: dict(
        states=np.r_[np.zeros((n, 2)), [[0.0, last]]], residuals=np.ones(n + 1),
        diverged_at=None),
    certify.PartitionField: lambda n, last: dict(
        re=np.r_[np.zeros(n - 1), last], im=np.zeros(n), type_mask=np.zeros((n, n), int),
        phase_match=np.zeros((n, n), bool), roots_p1=(1j, -1j), roots_p2=(2 + 0j,),
        theta=0.5),
}


def test_array_records_are_the_records_with_array_fields():
    # A record whose sample holds an array runs the array-equality tests below.
    assert set(ARRAY_RECORDS) == {
        cls for cls, (fields, _) in RECORDS.items()
        if any(isinstance(v, np.ndarray) for v in fields.values())}


@pytest.mark.parametrize("cls", list(ARRAY_RECORDS), ids=lambda cls: cls.__name__)
class TestArrayFields:
    """Records whose fields are distinct arrays compare by shape and entries.
    Comparing the field tuples raised 'The truth value of an array with more
    than one element is ambiguous' for any two distinct arrays."""

    def test_equal_copies_compare_equal(self, cls):
        r, same = cls(**ARRAY_RECORDS[cls](3, 2.0)), cls(**ARRAY_RECORDS[cls](3, 2.0))
        assert r == same and not r != same
        assert pickle.loads(pickle.dumps(r)) == r

    def test_changed_entry_compares_unequal(self, cls):
        r = cls(**ARRAY_RECORDS[cls](3, 2.0))
        assert r != cls(**ARRAY_RECORDS[cls](3, 3.0))
        assert not r == cls(**ARRAY_RECORDS[cls](3, 3.0))

    def test_changed_shape_compares_unequal(self, cls):
        r = cls(**ARRAY_RECORDS[cls](3, 2.0))
        assert r != cls(**ARRAY_RECORDS[cls](4, 2.0))
        assert not r == cls(**ARRAY_RECORDS[cls](2, 2.0))


class TestDerivedCaches:
    """``IterationProblem.nonzeros`` and ``.solution_scale``,
    ``DropSchedule.cuts`` and ``LaplacianMatrix.entries`` and
    ``.components`` are set by ``__post_init__`` and are not fields: they
    stay out of ``__init__``, ``==`` and repr, and survive a pickle."""

    def _problems(self):
        A, b, x0 = spectral.laplacian(PATH3).entries, np.zeros(3), np.arange(3.0)
        return [dynamics.IterationProblem(A.copy(), b, x0) for _ in range(2)]

    def _schedules(self):
        drops = {2: frozenset({(0, 1), (1, 2)})}
        return [dynamics.DropSchedule(PATH3, drops) for _ in range(2)]

    def test_not_in_init(self):
        p, _ = self._problems()
        with pytest.raises(TypeError, match="unexpected argument 'nonzeros'"):
            dynamics.IterationProblem(p.A, p.b, p.x0, nonzeros=p.nonzeros)
        with pytest.raises(TypeError, match="unexpected argument 'solution_scale'"):
            dynamics.IterationProblem(p.A, p.b, p.x0, solution_scale=p.solution_scale)
        d, _ = self._schedules()
        with pytest.raises(TypeError, match="unexpected argument 'cuts'"):
            dynamics.DropSchedule(PATH3, d.drops, cuts=d.cuts)
        L = spectral.laplacian(PATH3)
        with pytest.raises(TypeError, match="unexpected argument 'entries'"):
            spectral.LaplacianMatrix(PATH3, entries=L.entries)
        with pytest.raises(TypeError, match="unexpected argument 'components'"):
            spectral.LaplacianMatrix(PATH3, components=1)

    def test_not_compared(self):
        # A tuple of distinct arrays of two or more entries cannot be
        # compared as a bool, so equality holds only if the caches are left out.
        p, q = self._problems()
        assert p.A is not q.A
        assert p.nonzeros[1] is not q.nonzeros[1] and p.nonzeros[1].size > 1
        assert p == q
        d, e = self._schedules()
        assert d.cuts[2][0] is not e.cuts[2][0] and d.cuts[2][0].size > 1
        assert d == e
        L, M = spectral.laplacian(PATH3), spectral.laplacian(PATH3)
        assert L.entries is not M.entries and L == M

    def test_not_in_repr(self):
        p, _ = self._problems()
        d, _ = self._schedules()
        assert "nonzeros" not in repr(p) and "cuts" not in repr(d)
        assert "solution_scale" not in repr(p)
        r = repr(spectral.laplacian(PATH3))
        assert "entries" not in r and "components" not in r

    def test_survive_pickle(self):
        p, _ = self._problems()
        d, _ = self._schedules()
        back = pickle.loads(pickle.dumps(p))
        np.testing.assert_equal(back.nonzeros, p.nonzeros)
        assert back.solution_scale == p.solution_scale
        np.testing.assert_equal(pickle.loads(pickle.dumps(d)).cuts, d.cuts)
        two = spectral.LaplacianMatrix(spectral.WeightedGraph(2, ()))
        back = pickle.loads(pickle.dumps(two))
        assert back.components == two.components == 2
        np.testing.assert_array_equal(back.entries, two.entries)


# field -> (the name its message gives, a record with value v in that field)
REAL_FIELDS = {
    "SpectralInterval.lo": ("lo", lambda v: tuning.SpectralInterval(v, 2.0)),
    "SpectralInterval.hi": ("hi", lambda v: tuning.SpectralInterval(0.1, v)),
    "SpectralSet.points": ("points", lambda v: tuning.SpectralSet(points=(v,))),
    "ClaimCoeffs.nu": ("nu", lambda v: certify.ClaimCoeffs(2, v, (0.1, 0.2))),
    "ClaimCoeffs.a": ("a", lambda v: certify.ClaimCoeffs(2, 0.5, (v, 0.2))),
    "RealPolynomial.coeffs": ("coeffs", lambda v: polyroots.RealPolynomial((v, 1.0))),
    "WeightedGraph.weight": ("edge weight", lambda v: spectral.WeightedGraph(2, ((0, 1, v),))),
}


class TestRealFields:
    """Every real field is read as Gains reads a gain (``tuning._real``):
    a string was read as the number it spells or raised TypeError, and a
    bool was read as 0 or 1."""

    @pytest.mark.parametrize("value", ["0.5", True, None, 0.5j, [0.5]],
                             ids=["str", "bool", "None", "complex", "list"])
    @pytest.mark.parametrize("field", list(REAL_FIELDS))
    def test_non_real_rejected(self, field, value):
        name, make = REAL_FIELDS[field]
        with pytest.raises(ValueError, match=f"^{name} must be real, got "):
            make(value)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5)],
                             ids=["float64", "float32"])
    @pytest.mark.parametrize("field", list(REAL_FIELDS))
    def test_numpy_scalar_gives_equal_record(self, field, value):
        _, make = REAL_FIELDS[field]
        assert make(value) == make(0.5)

    @pytest.mark.parametrize("value", [1, np.int64(1)], ids=["int", "int64"])
    @pytest.mark.parametrize("field", [f for f in REAL_FIELDS if f != "ClaimCoeffs.nu"])
    def test_integer_gives_equal_record(self, field, value):
        _, make = REAL_FIELDS[field]
        assert make(value) == make(1.0)

    def test_stored_as_float(self):
        iv = tuning.SpectralInterval(np.float32(0.5), np.int64(2))
        assert repr(iv) == "SpectralInterval(lo=0.5, hi=2.0)"
        c = certify.ClaimCoeffs(2, np.float64(0.5), (1, np.float32(0.5)))
        assert repr(c) == "ClaimCoeffs(M=2, nu=0.5, a=(1.0, 0.5))"
