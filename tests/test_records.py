"""The result records' contract: repr, immutability, defaults, equality.

Every expectation is a literal, so a change to a record's fields, their
order, their defaults or its repr shows here.  Placeholder strings stand in
for algebras, subspaces and maps, which the records only carry.
"""

from collections import Counter

import pytest

from altrings.algebra import IdempotentCheck, IdentityReport
from altrings.finite import AdditivityReport, LieIdentityReport, SearchReport, TableSummary
from altrings.lietype import AbcReport, Decomposition
from altrings.peirce import (
    CommutantReport,
    ConditionsReport,
    PeirceContext,
    PeirceRelationsReport,
    PrimeReport,
    RelationViolation,
)
from altrings.verdict import ConditionVerdict, Verdict

HOLDS = "ConditionVerdict(status=<Verdict.HOLDS: 'holds'>, detail='', witness=None)"

# name -> (build one record, its repr); each build makes a fresh instance
RECORDS = {
    "ConditionVerdict": (lambda: ConditionVerdict(Verdict.HOLDS), HOLDS),
    "IdentityReport": (
        lambda: IdentityReport(associative=False, alternative=True, flexible=True),
        "IdentityReport(associative=False, alternative=True, flexible=True)"),
    "IdempotentCheck": (
        lambda: IdempotentCheck(True, False),
        "IdempotentCheck(idempotent=True, nontrivial=False)"),
    "PeirceContext": (
        lambda: PeirceContext("A", (1, 0), ((1, 0), 1), {}, {}, "Z", {}, {}),
        "PeirceContext(algebra='A', e1=(1, 0), e1_ints=((1, 0), 1), projections={},"
        " components={}, center='Z', action_spaces={}, central_lifts={})"),
    "RelationViolation": (
        lambda: RelationViolation("orthogonality", ((1, 2), (1, 2)), (0, 1), "x12 x12"),
        "RelationViolation(relation='orthogonality', source=((1, 2), (1, 2)),"
        " product=(0, 1), detail='x12 x12')"),
    "PeirceRelationsReport": (
        lambda: PeirceRelationsReport(True, True, False, True),
        "PeirceRelationsReport(composition=True, same_component=True,"
        " orthogonality=False, square_free=True, violations=())"),
    "CommutantReport": (
        lambda: CommutantReport(subspace="S", contained_in_center=True),
        "CommutantReport(subspace='S', contained_in_center=True)"),
    "ConditionsReport": (
        lambda: ConditionsReport(entries={"4": ConditionVerdict(Verdict.HOLDS)}),
        "ConditionsReport(entries={'4': " + HOLDS + "})"),
    "PrimeReport": (
        lambda: PrimeReport(Verdict.HOLDS, "exhaustive", 255),
        "PrimeReport(status=<Verdict.HOLDS: 'holds'>, mode='exhaustive', checked=255,"
        " witness=None, detail='')"),
    "AbcReport": (
        lambda: AbcReport(*[ConditionVerdict(Verdict.HOLDS)] * 3),
        f"AbcReport(a={HOLDS}, b={HOLDS}, c={HOLDS})"),
    "Decomposition": (
        lambda: Decomposition(delta="d", tau="t", normalizer="f"),
        "Decomposition(delta='d', tau='t', normalizer='f')"),
    "LieIdentityReport": (
        lambda: LieIdentityReport(Verdict.UNDECIDED, "sampled", 64),
        "LieIdentityReport(status=<Verdict.UNDECIDED: 'undecided'>, mode='sampled',"
        " checked=64, witness=None, residual=None)"),
    "AdditivityReport": (
        lambda: AdditivityReport(True, 3321),
        "AdditivityReport(all_central=True, checked=3321, witness=None)"),
    "TableSummary": (
        lambda: TableSummary((0, 1), True, False),
        "TableSummary(values=(0, 1), lie_ok=True, additive_ok=False)"),
    "SearchReport": (
        lambda: SearchReport(),
        "SearchReport(tally=Counter(), summaries=[], leaves=0, covered=0, total=0,"
        " instances=0, nodes=0, complete=False)"),
}
# records that carry a dict, or are mutable, have no hash
UNHASHABLE = {"PeirceContext", "ConditionsReport", "SearchReport"}


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_every_field_in_order(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_compare_and_hash_equal(name):
    build, _ = RECORDS[name]
    one, two = build(), build()
    assert one == two and not one != two
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - {"SearchReport"}))
def test_fields_cannot_be_assigned(name):
    build, text = RECORDS[name]
    record, field = build(), text[len(name) + 1:].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_defaults():
    v = ConditionVerdict(Verdict.FAILS)
    assert (v.detail, v.witness) == ("", None)
    assert PeirceRelationsReport(True, True, True, True).violations == ()
    p = PrimeReport(Verdict.UNDECIDED, "sampled", 7)
    assert (p.witness, p.detail) == (None, "")
    lie = LieIdentityReport(Verdict.HOLDS, "exhaustive", 1)
    assert (lie.witness, lie.residual) == (None, None)
    assert AdditivityReport(False, 0).witness is None


def test_search_report_is_mutable_with_fresh_containers():
    one, two = SearchReport(), SearchReport(total=16)
    one.tally[(True, True)] += 1
    one.summaries.append("s")
    one.leaves += 1
    assert (two.tally, two.summaries, two.leaves, two.total) == (Counter(), [], 0, 16)
    assert one != two and SearchReport(total=16) == two


def test_conditions_report_reads_its_entries_by_key():
    verdict = ConditionVerdict(Verdict.UNDECIDED, "dim Z = 2")
    report = ConditionsReport(entries={"4": verdict})
    assert report["4"] is verdict
    with pytest.raises(KeyError):
        report["1(1,2)"]


def test_properties():
    holds, fails = ConditionVerdict(Verdict.HOLDS), ConditionVerdict(Verdict.FAILS)
    assert AbcReport(holds, holds, holds).all_hold
    assert not AbcReport(holds, fails, holds).all_hold
    assert PeirceRelationsReport(True, True, True, True).all_hold
    assert not PeirceRelationsReport(True, True, False, True).all_hold
    assert LieIdentityReport(Verdict.HOLDS, "exhaustive", 1).ok
    assert not LieIdentityReport(Verdict.UNDECIDED, "sampled", 1).ok


def test_named_tuple_records_unpack_and_equal_their_values():
    # the one API change from frozen dataclasses: a record is its tuple
    associative, alternative, flexible = IdentityReport(False, True, True)
    assert (associative, alternative, flexible) == (False, True, True)
    assert ConditionVerdict(Verdict.HOLDS) == (Verdict.HOLDS, "", None)
