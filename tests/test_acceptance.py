"""Acceptance gate: ten criteria, one test each, exact-equality tolerances.

Each test prints a single PASS line on success (run with -s to see them);
a pytest failure on any test is the corresponding FAIL line.  Stated
runtime bounds are asserted with wall-clock checks.
"""

import random
import time
import warnings

import pytest

from altrings.algebra import associator, classify_identities
from altrings.catalog import CATALOG_NAMES, SafError, catalog, parse, serialize
from altrings.cli import main as cli_main
from altrings.fields import GF, QQ
from altrings.finite import (
    FiniteRing,
    MapTable,
    almost_additivity_defect,
    construct_converse_example,
    verify_lie_n_identity,
)
from altrings.lietype import (
    DecompositionError,
    OperatorSpace,
    conditions_abc_subspace,
    decompose,
    derivation_space,
    fosner_inclusion,
    lie_n_derivation_space,
    nested_commutator_span,
    normalize_at_idempotent,
    standard_inner_derivation,
)
from altrings.peirce import (
    check_conditions_1_to_4,
    check_offdiag_commutant,
    is_prime,
    peirce_context,
    verify_peirce_relations,
)
from altrings.verdict import Verdict
from oracles import ad


class timed:
    def __init__(self, bound_seconds=None):
        self.bound = bound_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None and self.bound is not None:
            assert self.elapsed < self.bound, (
                f"runtime {self.elapsed:.2f}s exceeds bound {self.bound}s"
            )
        return False


def report(n, label, t):
    print(f"ACCEPTANCE {n} PASS — {label} ({t.elapsed:.2f}s)")


def test_criterion_01_identity_classification():
    with timed(1.0) as t:
        Z = catalog("zorn", QQ)
        rep = classify_identities(Z)
        assert rep.alternative is True
        assert rep.flexible is True
        assert rep.associative is False
        u1, u2, u3 = (Z.basis_element(i) for i in (1, 2, 3))
        assert not associator(u1, u2, u3).is_zero()
        rep = classify_identities(catalog("mat2", QQ))
        assert rep.associative and rep.alternative and rep.flexible
    report(1, "identity classification", t)


def test_criterion_02_peirce_structure():
    with timed(1.0) as t:
        A = catalog("mat2", QQ)
        ctx = peirce_context(A, A.idempotent)
        assert ctx.dims == (1, 1, 1, 1)
        rep = verify_peirce_relations(ctx)
        assert rep.composition and rep.same_component
        assert rep.orthogonality and rep.square_free is True

        Z = catalog("zorn", QQ)
        ctxz = peirce_context(Z, Z.idempotent)
        assert ctxz.dims == (1, 3, 3, 1)
        rep = verify_peirce_relations(ctxz)
        assert rep.composition and rep.same_component
        assert rep.orthogonality and rep.square_free is True
    report(2, "Peirce structure", t)


def test_criterion_03_derivation_spaces():
    with timed(10.0) as t:
        # oracle: members must satisfy the Leibniz rule on all basis pairs,
        # and the standard inner derivations must fall inside the space
        mat2 = catalog("mat2", QQ)
        der = derivation_space(mat2)
        assert der.dim == 3
        for D in der.maps():
            for i in range(4):
                for j in range(4):
                    x, y = mat2.basis_element(i), mat2.basis_element(j)
                    assert D(x * y) == D(x) * y + x * D(y)

        zorn = catalog("zorn", QQ)
        derz = derivation_space(zorn)
        assert derz.dim == 14
        rng = random.Random(0)
        for _ in range(20):
            y = zorn._coerce_coords([rng.randint(-3, 3) for _ in range(8)])
            z = zorn._coerce_coords([rng.randint(-3, 3) for _ in range(8)])
            assert derz.contains(standard_inner_derivation(zorn, y, z))

        assert derivation_space(catalog("product2", QQ)).dim == 0
    report(3, "derivation space dims 3 / 14 / 0", t)


def test_criterion_04_lie_spaces_and_inclusions():
    with timed(30.0) as t:
        A = catalog("mat2", QQ)
        der = derivation_space(A)
        l2 = lie_n_derivation_space(A, 2)
        l3 = lie_n_derivation_space(A, 3)
        assert l2.dim == 4
        assert l3.dim == 4
        assert l2.contains_space(der)
        assert l3.contains_space(l2)
        assert fosner_inclusion(A, 2, 1)
    report(4, "Lie-n spaces and containments", t)


def test_criterion_05_hypothesis_checkers():
    with timed() as t:
        for name, field in (("mat2", GF(2)), ("zorn", GF(5))):
            A = catalog(name, field)
            ctx = peirce_context(A, A.idempotent)
            conds = check_conditions_1_to_4(ctx)
            assert all(
                v.status is Verdict.HOLDS for v in conds.entries.values()
            ), name
            prime = is_prime(A)
            assert prime.status is Verdict.HOLDS and prime.mode == "exhaustive"

        tri = catalog("tri2", QQ)
        conds = check_conditions_1_to_4(peirce_context(tri, tri.idempotent))
        assert conds.entries["1(1,2)"].status is Verdict.FAILS

        tri2f = catalog("tri2", GF(2))
        prime = is_prime(tri2f)
        assert prime.status is Verdict.FAILS
        assert prime.witness == ((0, 1, 0), (0, 1, 0))  # a = b = E12

        # prime + alternative => (1)(2)(3); (1)(2)(3) => both commutants
        for name in sorted(CATALOG_NAMES):
            for F in (QQ, GF(2), GF(3), GF(5)):
                A = catalog(name, F)
                ctx = peirce_context(A, A.idempotent)
                entries = check_conditions_1_to_4(ctx).entries
                one_to_three = all(
                    v.status is Verdict.HOLDS
                    for k, v in entries.items()
                    if k != "4"
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    prime_holds = is_prime(A).status is Verdict.HOLDS
                alt = classify_identities(A).alternative
                if prime_holds and alt:
                    assert one_to_three, (name, F.name)
                if one_to_three:
                    assert check_offdiag_commutant(ctx, "12").contained_in_center
                    assert check_offdiag_commutant(ctx, "21").contained_in_center
    report(5, "hypothesis checkers and cross-invariants", t)


def test_criterion_06_decomposition_roundtrip():
    with timed(30.0) as t:
        for name, seed in (("mat2", 17), ("zorn", 23)):
            A = catalog(name, QQ)
            ctx = peirce_context(A, A.idempotent)
            admissible = lie_n_derivation_space(A, 2).space.intersect(
                conditions_abc_subspace(ctx)
            )
            space = OperatorSpace(A, admissible, n=2)
            W = nested_commutator_span(A, 2)
            if name == "mat2":
                assert W.dim == 3  # trace-zero subspace
            rng = random.Random(seed)
            for _ in range(20):
                D = space.random_member(rng)
                dec = decompose(ctx, D, 2)
                assert dec.delta + dec.tau == D
                for i in range(A.dim):
                    for j in range(A.dim):
                        x = A.basis_element(i)
                        y = A.basis_element(j)
                        assert dec.delta(x * y) == dec.delta(x) * y + x * dec.delta(y)
                for col in range(A.dim):
                    assert ctx.center.contains(dec.tau.matrix.column(col))
                for w in W.basis:
                    assert all(
                        A.field.is_zero(v) for v in dec.tau.apply_coords(w)
                    )

        mat2 = catalog("mat2", QQ)
        ctx = peirce_context(mat2, mat2.idempotent)
        with pytest.raises(DecompositionError) as exc:
            decompose(ctx, ad(mat2, 1), 2)
        assert exc.value.certificate == "condition_c"
    report(6, "decomposition round-trip, 20 members on each algebra", t)


def test_criterion_07_normalization():
    with timed() as t:
        A = catalog("mat2", QQ)
        ctx = peirce_context(A, A.idempotent)
        for idx in (1, 2):  # ad_{E12}, ad_{E21}
            Dp, _ = normalize_at_idempotent(ctx, ad(A, idx))
            assert Dp.is_zero()
            assert ctx.center.contains(Dp.apply_coords(ctx.e1))
            e2 = tuple(
                A.field.sub(a, b) for a, b in zip(A.unit, ctx.e1)
            )
            assert ctx.center.contains(Dp.apply_coords(e2))
    report(7, "normalization of ad_E12 and ad_E21", t)


def test_criterion_08_non_additive_converse():
    with timed(60.0) as t:
        A = catalog("mat2", GF(3))
        ctx = peirce_context(A, A.idempotent)
        delta = ad(A, 0)  # ad_{E11}
        non_additive = 0
        for seed in range(10):
            T = construct_converse_example(ctx, delta, 2, seed=seed)
            rep = verify_lie_n_identity(A, T, 2)
            assert rep.ok and rep.mode == "exhaustive"
            assert rep.checked == 81 ** 2
            defects = almost_additivity_defect(A, T)
            assert defects.all_central
            if not T.is_additive():
                non_additive += 1
        assert non_additive >= 1
    report(8, "non-additive converse on M2(GF(3))", t)


def test_criterion_09_char2_failure_witness():
    with timed() as t:
        A = catalog("mat2", GF(2))
        ring = FiniteRing(A)
        rep = verify_lie_n_identity(A, MapTable.identity(ring), 2)
        assert rep.status is Verdict.FAILS
        assert rep.witness == ((1, 0, 0, 0), (0, 1, 0, 0))  # (E11, E12)
        assert rep.residual == (0, 1, 0, 0)  # E12
    report(9, "char-2 failure witness", t)


def test_criterion_10_file_format(tmp_path, capsys):
    with timed() as t:
        for name in sorted(CATALOG_NAMES):
            for F in (QQ, GF(5)):
                A = catalog(name, F)
                data = serialize(A)
                assert serialize(parse(data)) == data

        with pytest.raises(SafError) as exc:
            parse(b"saf 1\nfield Q\ndim 2\nmul 1 1 3 1\n")
        assert exc.value.line == 4

        bad = tmp_path / "bad.saf"
        bad.write_bytes(b"saf 1\nfield GF 4\ndim 1\n")
        code = cli_main(["info", "--file", str(bad)])
        captured = capsys.readouterr()
        assert code == 3
        assert "line 2" in captured.err
    report(10, "file format round-trip and errors", t)
