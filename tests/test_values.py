"""Value semantics of the package's plain slotted classes.

Each value type compares and hashes over its fields in order, is frozen and has no
__dict__; the reprs of one fixed instance per class are pinned to the strings the
earlier dataclass-generated methods printed, and the classes that override a dunder
of the Frozen base are listed with their reasons.
"""

import importlib
import pkgutil

import pytest

import jordanlab
from jordanlab.birgroup import BirAuto, SamplePoint
from jordanlab.claims import Claim, RunReport
from jordanlab.ellcurve import Curve, CurvePoint, Divisor, TrackedFunction
from jordanlab.finab import Character, FinAbGroup, HPoint, HSubgroup, IsotropicWitness, KElement
from jordanlab.frozen import Frozen
from jordanlab.heisenberg import HeisElement, IndexReport
from jordanlab.scalars import FpElement, RootOfUnity
from jordanlab.theta import HofL, ThetaElement


def fe(v: int) -> FpElement:
    return FpElement(7, v)


E = Curve(7, fe(3), fe(0))  # y^2 = x^3 + 3x over F_7
O = CurvePoint(E, None, None)
P, Q = CurvePoint(E, 1, 2), CurvePoint(E, 1, 5)  # Q = -P
D = Divisor(E, ((P, 1), (Q, 1), (O, -2)))
A = ((0, 1, 6), O, 1, D)  # the atom x - 1: (line, offset, exponent, base divisor)
F = TrackedFunction(E, 3, (A,))
K = FinAbGroup((4,))
X, ELL = KElement(K, (1,)), Character(K, (1,))
H0, H1 = HPoint(KElement(K, (0,)), Character(K, (0,))), HPoint(X, Character(K, (0,)))
S = HSubgroup(K, (H0, H1))
G = HeisElement(RootOfUnity(4, 1), X, ELL)

# (class, constructor arguments, index of the argument to change, a different value)
CASES = [
    (FpElement, (7, 3), 1, 4),
    (RootOfUnity, (6, 1), 1, 2),
    (Curve, (7, fe(3), fe(0)), 1, fe(2)),
    (CurvePoint, (E, 1, 2), 2, 5),
    (Divisor, (E, ((P, 1), (Q, 1), (O, -2))), 1, ((P, 2), (O, -2))),
    (TrackedFunction, (E, 3, (A,)), 1, 5),
    (FinAbGroup, ((4,),), 0, (2, 2)),
    (KElement, (K, (1,)), 1, (2,)),
    (Character, (K, (1,)), 1, (3,)),
    (HPoint, (X, ELL), 1, Character(K, (0,))),
    (HSubgroup, (K, (H0, H1)), 1, (H0,)),
    (IsotropicWitness, (S, S, 8), 2, 4),
    (HeisElement, (RootOfUnity(4, 1), X, ELL), 0, RootOfUnity(4, 3)),
    (IndexReport, ((4,), 64, 4, 4, (G,), 16, 4, True, 61), 8, 60),
    (ThetaElement, (2, P, F), 0, 3),
    (HofL, (2, (P, Q, O)), 0, 3),
    (SamplePoint, (P, 3), 1, 4),
    (BirAuto, (P, F), 0, Q),
]
IDS = [cls.__name__ for cls, *_ in CASES]

# Frozen derives __eq__, __hash__ and __repr__ from __slots__; these are the classes that
# define one of them in their own body, with the dunders they define and why
OVERRIDES = {
    Curve: ("__eq__ __hash__ __repr__",
            "p, a and b only, not the count or the kept points; hashed on ints; E(p:a:b)"),
    CurvePoint: ("__eq__ __hash__ __repr__",
                 "identity first, since points are kept; hashed on the int coordinates; (x,y)"),
    FpElement: ("__repr__", "the value alone"),
    RootOfUnity: ("__repr__", "zetaN^k"),
    Divisor: ("__repr__", "the formal sum"),
    TrackedFunction: ("__repr__", "Fn(const; count atoms)"),
    FinAbGroup: ("__repr__", "K(delta)"),
    KElement: ("__repr__", "the coordinates alone"),
    Character: ("__repr__", "chi(coordinates)"),
    HPoint: ("__repr__", "(x,ell)"),
    HeisElement: ("__repr__", "(a,x,ell)"),
    ThetaElement: ("__repr__", "Thetan(x; f)"),
    BirAuto: ("__repr__", "A(y, f)"),
}

# repr of cls(*args) for each case, as printed by the dataclass-generated or custom methods
REPRS = {
    "FpElement": "3",
    "RootOfUnity": "zeta6^1",
    "Curve": "E(7:3:0)",
    "CurvePoint": "(1,2)",
    "Divisor": "1*((1,2)) + 1*((1,5)) + -2*(O)",
    "TrackedFunction": "Fn(3; 1 atoms)",
    "FinAbGroup": "K(4,)",
    "KElement": "(1,)",
    "Character": "chi(1,)",
    "HPoint": "((1,),chi(1,))",
    "HSubgroup": "HSubgroup(group=K(4,), elements=(((0,),chi(0,)), ((1,),chi(0,))))",
    "IsotropicWitness": (
        "IsotropicWitness(elements=HSubgroup(group=K(4,), elements=(((0,),chi(0,)), "
        "((1,),chi(0,)))), complement=HSubgroup(group=K(4,), elements=(((0,),chi(0,)), "
        "((1,),chi(0,)))), index=8)"
    ),
    "HeisElement": "(zeta4^1,(1,),chi(1,))",
    "IndexReport": (
        "IndexReport(delta=(4,), group_order=64, certified_lower_bound=4, min_abelian_index=4, "
        "witness_generators=((zeta4^1,(1,),chi(1,)),), witness_order=16, witness_index=4, "
        "exhaustive=True, subgroups_scanned=61)"
    ),
    "ThetaElement": "Theta2((1,2); Fn(3; 1 atoms))",
    "HofL": "HofL(level=2, elements=((1,2), (1,5), O))",
    "SamplePoint": "SamplePoint(x=(1,2), t=3)",
    "BirAuto": "A((1,2), Fn(3; 1 atoms))",
    "Claim": (
        "Claim(id='pairing-bi-additive', status='verified', checked=128, failures=0, "
        "detail='2 generators checked')"
    ),
    "RunReport": (
        "RunReport(command='abstract', params={'delta': [2]}, "
        "claims=[Claim(id='pairing-alternating', status='verified', checked=4, failures=0, "
        "detail=''), Claim(id='commutator-identity', status='skipped-budget', checked=0, "
        "failures=0, detail='N = 2 beyond exhaustive cap')], data={}, wall_time_s=0.0)"
    ),
}


def changed(args: tuple, index: int, value) -> tuple:
    return args[:index] + (value,) + args[index + 1:]


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_equal_fields_are_equal_with_equal_hashes(cls, args, index, value):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_hash_runs_over_the_fields_in_order(cls, args, index, value):
    g = cls(*args)
    if cls is Curve:  # custom: the field's ints, not the FpElements
        expected = (g.p, g.a.value, g.b.value)
    elif cls is CurvePoint:  # custom: the coordinates alone
        expected = (g.x, g.y)
    else:  # Frozen's derived hash: the field tuple
        expected = tuple(getattr(g, name) for name in cls.__slots__)
    assert hash(g) == hash(expected)


def fields_read(g):
    pytest.fail("a field was read")


# Each case keeps a fixed id, so its name does not move when a case before it is added or removed
SELF_EQUAL_IDS = {
    FpElement: "args0", RootOfUnity: "args1", Divisor: "args2", TrackedFunction: "args6",
    FinAbGroup: "args7", KElement: "args8", Character: "args9", HPoint: "args10",
    HSubgroup: "args11", IsotropicWitness: "args12", HeisElement: "args13",
    IndexReport: "args14", ThetaElement: "args15", HofL: "args16", SamplePoint: "args17",
    BirAuto: "args18",
}


@pytest.mark.parametrize("cls,args", [
    pytest.param(cls, args, id=f"{cls.__name__}-{SELF_EQUAL_IDS[cls]}")
    for cls, args, *_ in CASES if "__eq__" not in vars(cls)])
def test_an_instance_equals_itself_without_reading_a_field(monkeypatch, cls, args):
    a, b = cls(*args), cls(*args)
    monkeypatch.setattr(cls, "_fields", staticmethod(fields_read))
    assert a == a and not a != a
    with pytest.raises(pytest.fail.Exception):  # an equal copy still compares its fields
        a == b


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_one_changed_field_breaks_equality(cls, args, index, value):
    a, b = cls(*args), cls(*changed(args, index, value))
    assert a != b and not a == b


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_an_instance_of_another_class_is_not_equal(cls, args, index, value):
    # KElement and Character are built from the same arguments
    g = cls(*args)
    for other_cls, other_args, *_ in CASES:
        if other_cls is not cls:
            assert g != other_cls(*other_args)
    assert g != object() and g != args


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_frozen_types_refuse_assignment_and_deletion(cls, args, index, value):
    g = cls(*args)
    for name in cls.__slots__:
        before = getattr(g, name)
        with pytest.raises(AttributeError):
            setattr(g, name, value)
        with pytest.raises(AttributeError):
            delattr(g, name)
        assert getattr(g, name) is before
    with pytest.raises(AttributeError):
        g.extra = 1


def test_validation_runs_in_init():
    assert FpElement(7, 10).value == 3
    assert TrackedFunction(E, 10, ()).const == 3
    assert CurvePoint(E, 8, -5) == P and CurvePoint(E, 8, -5).x == 1
    assert RootOfUnity(6, -1).exponent == 5
    assert KElement(K, (5,)).coords == (1,)
    assert FinAbGroup([4.0]).delta == (4,)
    with pytest.raises(ValueError):
        FpElement(8, 1)
    with pytest.raises(ValueError):
        TrackedFunction(E, 0, ())
    with pytest.raises(ValueError):
        TrackedFunction(E, 7, ())


def records():
    report = RunReport("abstract", {"delta": [2]})
    report.claim("pairing-alternating", True, 4)
    report.skip("commutator-identity", "N = 2 beyond exhaustive cap")
    return [Claim("pairing-bi-additive", "verified", 128, 0, "2 generators checked"), report]


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_no_instance_has_a_dict(cls, args, index, value):
    assert not hasattr(cls(*args), "__dict__")


def test_records_are_slotted_and_mutable():
    claim, report = records()
    for g in (claim, report):
        assert not hasattr(g, "__dict__")
        with pytest.raises(AttributeError):
            g.extra = 1
    claim.status = "failed"
    report.wall_time_s = 1.5
    assert claim.to_dict()["status"] == "failed"
    assert report.to_dict()["wall_time_s"] == 1.5


@pytest.mark.parametrize("cls,args,index,value", CASES, ids=IDS)
def test_repr_is_unchanged(cls, args, index, value):
    assert repr(cls(*args)) == REPRS[cls.__name__]


def test_record_reprs_are_unchanged():
    claim, report = records()
    assert repr(claim) == REPRS["Claim"]
    assert repr(report) == REPRS["RunReport"]


def test_every_override_of_the_frozen_base_is_listed():
    for info in pkgutil.iter_modules(jordanlab.__path__):
        importlib.import_module(f"jordanlab.{info.name}")
    classes = Frozen.__subclasses__()
    assert {cls for cls, *_ in CASES} <= set(classes)
    assert all(cls.__hash__ is not None for cls in classes)
    found = {cls: " ".join(name for name in ("__eq__", "__hash__", "__repr__") if name in vars(cls))
             for cls in classes}
    assert {cls: names for cls, names in found.items() if names} == {
        cls: names for cls, (names, _) in OVERRIDES.items()}
