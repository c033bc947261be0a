"""The workloads: per round, a seeded list of jobs, each with its oracle.

A workload prepares per-process data once (`prepare`) and then builds one
round of jobs at a time (`build`).  Every job gets its own freshly built
Algebra, so no cache of the package can carry a result from one job to
the next; round r draws its inputs from the stream (seed, workload, r).
A job's `check` returns OK, UNDECIDED (the package declined a question
whose answer is known) or a description of what went wrong.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import gen
import oracle
from gen import conjugate, dense_rebase, element_coords, element_index, rng_for
from oracle import Arith

OK = "ok"
UNDECIDED = "undecided"

# Each workload fixes the percentile of job_tail_ms, taken over every job
# time a run records, so that runs of different lengths report the same
# statistic; the worker runs enough rounds to leave at least ten jobs
# beyond it.

HERE = Path(__file__).resolve().parent


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str]


class Context:
    """What jobs share in one worker: the package, paths, the tracer."""

    def __init__(self, alt, root: Path, workdir: Path):
        self.alt = alt            # the altrings package, None for cli-cold
        self.root = root
        self.workdir = workdir
        self.tracer = None        # set while a traced round runs


# --------------------------------------------------------------- helpers

def catalog_struct(alt, name: str) -> gen.Struct:
    A = alt.catalog(name, alt.QQ)
    return gen.struct_from_tensor(name, A.tensor, A.unit, A.idempotent)


def algebra(alt, S: gen.Struct, field):
    return alt.Algebra(field, S.dim, S.triples, unit=S.unit, idempotent=S.idem, name=S.name)


def call(alt, fname: str, *args, **kwargs):
    """A job body that looks the function up when it runs (so that the
    tracer's wrappers apply to exactly the traced rounds)."""
    return lambda: getattr(alt, fname)(*args, **kwargs)


def linear_map(alt, A, rows):
    return alt.LinearMap(A, alt.Matrix(A.field, rows))


def rows_of(matrix) -> list:
    return [list(r) for r in matrix.rows]


def reshape(flat, d: int) -> list:
    return [list(flat[r * d:(r + 1) * d]) for r in range(d)]


def ad_matrix(S: gen.Struct, x, p: int = 0) -> list:
    """Matrix of y -> y x - x y; column j is the image of e_j."""
    ar = Arith(S, p)
    cols = [ar.bracket(ar.basis(j), x) for j in range(S.dim)]
    return [[cols[j][i] for j in range(S.dim)] for i in range(S.dim)]


def inner_derivation(S: gen.Struct, p: int, rng) -> list:
    """ad_h for a random non-central h: a derivation of an associative algebra."""
    ar = Arith(S, p)
    while True:
        h = gen.random_element(S.dim, p, rng)
        if not ar.central(h):
            return ad_matrix(S, h, p)


def status(report) -> str:
    return report.status.value


def failure(out) -> str | None:
    if isinstance(out, BaseException):
        return f"raised {type(out).__name__}: {out}"
    return None


def expect(expected):
    def check(out):
        if failure(out):
            return failure(out)
        return OK if out == expected else f"got {out!r}, expected {expected!r}"
    return check


def expect_dim(dim: int):
    def check(out):
        if failure(out):
            return failure(out)
        return OK if out.dim == dim else f"dimension {out.dim}, expected {dim}"
    return check


def expect_attrs(**want):
    def check(out):
        if failure(out):
            return failure(out)
        got = {k: getattr(out, k) for k in want}
        return OK if got == want else f"got {got}, expected {want}"
    return check


def expect_certificate(certificate: str):
    def check(out):
        if getattr(out, "certificate", None) == certificate:
            return OK
        return failure(out) or f"decomposed; expected DecompositionError({certificate!r})"
    return check


def expect_budget_error(out) -> str:
    if type(out).__name__ == "BudgetError":
        return OK
    return failure(out) or "scan ran; expected BudgetError"


def check_exhaustive_prime(p: int, d: int):
    def check(rep):
        if failure(rep):
            return failure(rep)
        if status(rep) != "holds" or rep.mode != "exhaustive":
            return f"{status(rep)} ({rep.mode}); a simple algebra is prime"
        if rep.checked != oracle.rays(p, d):
            return f"checked {rep.checked} rays, expected {oracle.rays(p, d)}"
        return OK
    return check


def check_prime_witness(ar: Arith, frozen=None):
    def check(rep):
        if failure(rep):
            return failure(rep)
        if status(rep) != "fails" or rep.witness is None:
            return f"{status(rep)}; the algebra is not prime"
        a, b = rep.witness
        if frozen is not None and rep.witness != frozen:
            return f"witness {rep.witness}, expected {frozen}"
        if ar.is_zero(a) or ar.is_zero(b) or not ar.kills_ideal_pair(a, b):
            return f"witness {rep.witness} does not satisfy a R b = 0"
        return OK
    return check


def check_sampled_prime(rep) -> str:
    if failure(rep):
        return failure(rep)
    if status(rep) == "undecided":
        return UNDECIDED
    return OK if status(rep) == "holds" else "fails on a prime algebra"


def check_conditions_product2(ar: Arith):
    """F x F: R12 = R21 = 0, so (1) holds vacuously, (2) and (3) fail and
    (4) fails at any central zero divisor such as e1."""
    def check(rep):
        if failure(rep):
            return failure(rep)
        got = {k: status(v) for k, v in rep.entries.items()}
        want = {"1(1,2)": "holds", "1(2,1)": "holds",
                "2a": "fails", "2b": "fails", "3a": "fails", "3b": "fails"}
        if any(got[k] != v for k, v in want.items()):
            return f"conditions {got}"
        four = rep.entries["4"]
        if status(four) == "undecided":
            return UNDECIDED
        z = four.witness
        if status(four) != "fails" or z is None:
            return f"condition (4) {status(four)}; e1 is a central zero divisor"
        if ar.is_zero(z) or not ar.central(z) or not ar.left_singular(z):
            return f"condition (4) witness {z} is not a central zero divisor"
        return OK
    return check


def check_idempotents(total: int):
    """All idempotents, of which exactly two (zero and the unit) are trivial."""
    def check(found):
        if failure(found):
            return failure(found)
        nontrivial = sum(1 for _, nt in found if nt)
        if (len(found), nontrivial) != (total, total - 2):
            return f"{len(found)} idempotents ({nontrivial} nontrivial), expected {total}"
        return OK
    return check


def check_all_hold(rep) -> str:
    if failure(rep):
        return failure(rep)
    bad = {k: status(v) for k, v in rep.entries.items() if status(v) != "holds"}
    return OK if not bad else f"conditions {bad} on a prime alternative algebra"


# ------------------------------------------------------------- q-spaces

# Decompose jobs per basis: many calls, so that per-call rechecks show.
DECOMPOSE_JOBS = 10


def admissible_space(alt, A):
    """Lie-2 derivations satisfying (a), (b), (c)."""
    ctx = alt.peirce_context(A, A.idempotent)
    return alt.lie_n_derivation_space(A, 2).space.intersect(alt.conditions_abc_subspace(ctx))


def run_relations(alt, A):
    return alt.verify_peirce_relations(alt.peirce_context(A, A.idempotent))


def run_conditions(alt, A):
    return alt.check_conditions_1_to_4(alt.peirce_context(A, A.idempotent))


def run_decompose(alt, A, D):
    dec = alt.decompose(alt.peirce_context(A, A.idempotent), D, 2)
    return rows_of(dec.delta.matrix), rows_of(dec.tau.matrix)


def check_decompose(ar: Arith, D):
    def check(out):
        if failure(out):
            return failure(out)
        return oracle.check_decomposition(ar, D, *out) or OK
    return check


class QSpaces:
    """Over Q: rational elimination (linalg) and constraint generation
    (lietype).  Sparse catalog bases beside dense high-coefficient rebases
    let an integral or sparse fast path show on one and not the other; the
    many decompose jobs expose its per-call rechecks."""

    name = "q-spaces"
    tail_percentile = 90

    def prepare(self, ctx):
        alt = ctx.alt
        structs = {n: catalog_struct(alt, n) for n in ("mat2", "zorn", "product2")}
        admissible = {n: admissible_space(alt, algebra(alt, structs[n], alt.QQ)).basis
                      for n in ("mat2", "zorn")}
        return structs, admissible

    def build(self, ctx, data, seed: int, rnd: int):
        alt, QQ = ctx.alt, ctx.alt.QQ
        structs, admissible = data
        rng = rng_for(seed, self.name, rnd)
        jobs, props = [], {}
        for n in ("mat2", "zorn"):
            base = structs[n]
            rb = dense_rebase(base, rng)
            for label, S, conj in (
                ("cat", base, lambda M: M),
                ("dense", rb.struct, lambda M, rb=rb: conjugate(M, rb.P, rb.Q)),
            ):
                tag = f"{n}/{label}"
                props[tag] = {"nonzero": S.nonzero, "height": S.height}
                ar = Arith(S)

                def fresh():
                    return algebra(alt, S, QQ)

                jobs += [
                    Job(f"der {tag}", call(alt, "derivation_space", fresh()),
                        expect_dim(oracle.DER_DIM[n])),
                    Job(f"lie2 {tag}", call(alt, "lie_n_derivation_space", fresh(), 2),
                        expect_dim(oracle.LIE_DIM[n])),
                    Job(f"admissible {tag}", partial(admissible_space, alt, fresh()),
                        expect_dim(oracle.ADMISSIBLE_DIM[n])),
                    Job(f"pn-span {tag}", call(alt, "nested_commutator_span", fresh(), 2),
                        expect_dim(oracle.COMMUTATOR_SPAN_DIM[n])),
                ]
                if tag != "zorn/dense":   # ~3 s alone; lie3 zorn/cat stands for it
                    jobs.append(Job(f"lie3 {tag}", call(alt, "lie_n_derivation_space", fresh(), 3),
                                    expect_dim(oracle.LIE_DIM[n])))
                for _ in range(DECOMPOSE_JOBS):
                    M = conj(reshape(gen.combination(admissible[n], rng, S.dim ** 2), S.dim))
                    A = fresh()
                    jobs.append(Job(f"decompose {tag}",
                                    partial(run_decompose, alt, A, linear_map(alt, A, M)),
                                    check_decompose(ar, M)))
                # ad of the basis element e_1, which lies in R12 (E12 or u1)
                M = conj(ad_matrix(base, Arith(base).basis(1)))
                A = fresh()
                jobs.append(Job(f"decompose-ad {tag}",
                                partial(run_decompose, alt, A, linear_map(alt, A, M)),
                                expect_certificate("condition_c")))
                if n == "zorn":
                    jobs.append(Job(f"prime-sampled {tag}", call(alt, "is_prime", fresh()),
                                    check_sampled_prime))
        P2 = structs["product2"]
        jobs.append(Job("conditions product2/Q", partial(run_conditions, alt, algebra(alt, P2, QQ)),
                        check_conditions_product2(Arith(P2))))
        return jobs, props


# ------------------------------------------------------------------ gfp

def prime_scan_jobs(alt, structs, rng):
    """Exhaustive primality ray scans and mul_coords enumeration, with early
    FAILS and a budget refusal beside full scans.  zorn/GF(5) (97,656 rays,
    ~13 s) is left out: the per-ray cost shows on the 3,280-ray scans."""
    GF = alt.GF
    zorn, mat2 = structs["zorn"], structs["mat2"]
    dense = dense_rebase(zorn, rng).struct
    jobs, props = [], {}

    def fresh(S, p):
        return algebra(alt, S, GF(p))

    for S, p in ((zorn, 2), (zorn, 3), (dense, 3), (mat2, 5), (mat2, 7), (mat2, 11)):
        props[f"{S.name}/GF({p})"] = {"rays": oracle.rays(p, S.dim), "height": S.height,
                                      "nonzero": sum(1 for c in S.triples.values() if c % p)}
        jobs.append(Job(f"prime {S.name}/GF({p})", call(alt, "is_prime", fresh(S, p)),
                        check_exhaustive_prime(p, S.dim)))
    tri2, product2 = structs["tri2"], structs["product2"]
    jobs.append(Job("prime tri2/GF(2)", call(alt, "is_prime", fresh(tri2, 2)),
                    check_prime_witness(Arith(tri2, 2), oracle.TRI2_PRIME_WITNESS)))
    p = rng.choice((2, 3, 5))
    jobs.append(Job(f"prime product2/GF({p})", call(alt, "is_prime", fresh(product2, p)),
                    check_prime_witness(Arith(product2, p))))
    budget = rng.randint(1000, oracle.rays(3, 8) - 1)
    jobs.append(Job("prime-budget zorn/GF(3)",
                    call(alt, "is_prime", fresh(zorn, 3), budget=budget), expect_budget_error))
    # zorn is alternative, not associative, in every characteristic
    jobs.append(Job("classify zorn/GF(2)", call(alt, "classify_identities", fresh(zorn, 2)),
                    expect_attrs(associative=False, alternative=True, flexible=True)))
    jobs.append(Job("relations zorn/GF(2)", partial(run_relations, alt, fresh(zorn, 2)),
                    expect_attrs(all_hold=True)))
    jobs.append(Job("conditions zorn/GF(3)", partial(run_conditions, alt, fresh(zorn, 3)),
                    check_all_hold))
    q = rng.choice((3, 5))
    jobs.append(Job(f"conditions product2/GF({q})",
                    partial(run_conditions, alt, fresh(product2, q)),
                    check_conditions_product2(Arith(product2, q))))
    for S, p in ((mat2, 3), (zorn, 2)):
        jobs.append(Job(f"idempotents {S.name}/GF({p})",
                        call(alt, "find_idempotents", fresh(S, p)),
                        check_idempotents(oracle.idempotent_count(S.name, p))))
    return jobs, props


# the rng streams of the two halves of gfp (each round draws from both)
SCANS_STREAM, TABLES_STREAM = "gfp-scans", "gf3-tables"
CONVERSE_JOBS = 4
WARM_VERIFY_JOBS = 10
RANDOM_TABLE_JOBS = 3
SEARCH_NODE_BUDGET = 300
BUDGET_SEARCH_JOBS = 3
RESIDUAL_SAMPLES = 200


def own_table(S: gen.Struct, p: int, delta, rng, is_commutator) -> list:
    """T = delta + tau, tau a random scalar off the commutator values."""
    ar = Arith(S, p)
    values = []
    for i in range(p ** S.dim):
        x = element_coords(i, S.dim, p)
        y = list(ar.apply(delta, x))
        if not is_commutator(x):
            c = rng.randrange(p)
            y = [(a + c * u) % p for a, u in zip(y, S.unit)]
        values.append(element_index(y, p))
    return values


def check_verify(checked: int, want: str = "holds"):
    def check(rep):
        if failure(rep):
            return failure(rep)
        if status(rep) != want or rep.mode != "exhaustive" or rep.checked != checked:
            return f"{status(rep)} ({rep.mode}, {rep.checked} tuples)"
        return OK
    return check


def check_failing_table(ar: Arith, values):
    def check(rep):
        if failure(rep):
            return failure(rep)
        if status(rep) != "fails" or rep.witness is None:
            return f"{status(rep)} on a random table"
        residual = oracle.lie2_residual(ar, values, *rep.witness)
        if ar.is_zero(residual) or residual != tuple(rep.residual):
            return f"witness {rep.witness} has residual {residual}, reported {rep.residual}"
        return OK
    return check


def check_converse(ar: Arith, delta, is_commutator=None, samples: int = 0, rng=None):
    def check(values):
        if failure(values):
            return failure(values)
        bad = oracle.check_converse_table(ar, delta, values, is_commutator)
        if bad:
            return bad
        for _ in range(samples):
            x = gen.random_element(ar.d, ar.p, rng)
            y = gen.random_element(ar.d, ar.p, rng)
            if not ar.is_zero(oracle.lie2_residual(ar, values, x, y)):
                return f"identity fails at {x}, {y}"
        return OK
    return check


def run_converse(alt, A, delta, seed: int):
    ctx = alt.peirce_context(A, A.idempotent)
    D = linear_map(alt, A, delta)
    return alt.construct_converse_example(ctx, D, 2, seed=seed).values


def run_search(alt, A, budget=None):
    kwargs = {} if budget is None else {"budget": budget}
    rep = alt.pruned_exhaustive_search(A, 2, **kwargs)
    return rep.complete, rep.leaves, rep.covered, rep.total, rep.nodes, dict(rep.tally)


def check_search(size: int, satisfying: int | None, budget=None):
    """Complete coverage, every leaf satisfying the identity and, on a
    commutative ring, exactly the p^(S-1) tables with T(0) = 0, all almost
    additive.  A budgeted search that stops early is undecided."""
    def check(out):
        if failure(out):
            return failure(out)
        complete, leaves, covered, total, nodes, tally = out
        if total != size ** size:
            return f"total {total}, expected {size ** size}"
        if not complete:
            if budget is not None and nodes > budget and covered < total:
                return UNDECIDED
            return f"incomplete without exhausting the budget ({nodes} nodes)"
        if covered != total or leaves != sum(tally.values()):
            return f"covered {covered}/{total}, {leaves} leaves for tally {tally}"
        if any(not lie for lie, _ in tally):
            return f"tally {tally} has a leaf that fails the identity"
        if satisfying is not None and tally != {(True, True): satisfying}:
            return f"tally {tally}, expected {satisfying} satisfying tables"
        return OK
    return check


class Gfp:
    """Everything over GF(p), with almost no Q elimination.  The primality
    scans (peirce) and mul_coords enumeration (algebra); then FiniteRing value
    tables, memo cold (a fresh ring per converse) and warm (one ring shared
    by the verify jobs), with working sets of 6.5k pairs (M2(GF(3))) and 65k
    pairs (zorn/GF(2)): eager index tables would show their speed and their
    memory here."""

    name = "gfp"
    tail_percentile = 86

    def prepare(self, ctx):
        alt = ctx.alt
        structs = {n: catalog_struct(alt, n) for n in ("mat2", "zorn", "tri2", "product2")}
        Z2 = algebra(alt, structs["zorn"], alt.GF(2))
        der = [[int(v) for v in row] for row in alt.derivation_space(Z2).space.basis]
        return structs, der

    def build(self, ctx, data, seed: int, rnd: int):
        alt = ctx.alt
        GF = alt.GF
        structs, zorn_der = data
        jobs, props = prime_scan_jobs(alt, structs, rng_for(seed, SCANS_STREAM, rnd))
        rng = rng_for(seed, TABLES_STREAM, rnd)
        mat2, zorn = structs["mat2"], structs["zorn"]
        ar3 = Arith(mat2, 3)
        on_commutators = oracle.mat2_commutator(3)

        for _ in range(CONVERSE_JOBS):
            delta = inner_derivation(mat2, 3, rng)
            jobs.append(Job("converse mat2/GF(3)",
                            partial(run_converse, alt, algebra(alt, mat2, GF(3)), delta,
                                    rng.randrange(2 ** 31)),
                            check_converse(ar3, delta, on_commutators)))

        # one ring shared by the verify jobs below, so its memo is warm
        A = algebra(alt, mat2, GF(3))
        ring = alt.FiniteRing(A)
        tables = [own_table(mat2, 3, inner_derivation(mat2, 3, rng), rng, on_commutators)
                  for _ in range(WARM_VERIFY_JOBS)]
        maps = [alt.MapTable(ring, v) for v in tables]
        for T in maps:
            jobs.append(Job("verify-n2 mat2/GF(3)",
                            call(alt, "verify_lie_n_identity", A, T, 2), check_verify(81 ** 2)))
        jobs.append(Job("verify-n3 mat2/GF(3)",
                        call(alt, "verify_lie_n_identity", A, maps[0], 3), check_verify(81 ** 3)))
        jobs.append(Job("defect mat2/GF(3)", call(alt, "almost_additivity_defect", A, maps[0]),
                        expect_attrs(all_central=True, checked=81 * 82 // 2)))
        jobs.append(Job("additive mat2/GF(3)", lambda T=maps[1]: T.is_additive(),
                        expect(oracle.additive(ar3, tables[1]))))

        for _ in range(RANDOM_TABLE_JOBS):
            B = algebra(alt, mat2, GF(3))
            values = [rng.randrange(81) for _ in range(81)]
            T = alt.MapTable(alt.FiniteRing(B), values)
            jobs.append(Job("verify-random mat2/GF(3)",
                            call(alt, "verify_lie_n_identity", B, T, 2),
                            check_failing_table(ar3, values)))

        B = algebra(alt, mat2, GF(2))
        T = alt.MapTable.identity(alt.FiniteRing(B))
        jobs.append(Job("verify-char2 mat2/GF(2)", call(alt, "verify_lie_n_identity", B, T, 2),
                        expect_attrs(status="fails", witness=oracle.CHAR2_WITNESS,
                                     residual=oracle.CHAR2_RESIDUAL)))

        arz = Arith(zorn, 2)
        for _ in range(100):
            cs = [rng.randrange(2) for _ in zorn_der]
            flat = [sum(c * row[i] for c, row in zip(cs, zorn_der)) % 2 for i in range(64)]
            delta = reshape(flat, 8)
            if any(flat) and arz.is_derivation(delta):
                break
        else:
            raise RuntimeError("derivation_space(zorn/GF(2)) returned no derivation")
        jobs.append(Job("converse zorn/GF(2)",
                        partial(run_converse, alt, algebra(alt, zorn, GF(2)), delta,
                                rng.randrange(2 ** 31)),
                        check_converse(arz, delta, samples=RESIDUAL_SAMPLES,
                                       rng=rng_for(seed, TABLES_STREAM, rnd, "sample"))))

        jobs.append(Job("search product2/GF(2)",
                        partial(run_search, alt, algebra(alt, structs["product2"], GF(2))),
                        check_search(4, 4 ** 3)))
        jobs.append(Job("search tri2/GF(2)",
                        partial(run_search, alt, algebra(alt, structs["tri2"], GF(2))),
                        check_search(8, None)))
        for _ in range(BUDGET_SEARCH_JOBS):
            jobs.append(Job("search-budget product2/GF(3)",
                            partial(run_search, alt, algebra(alt, structs["product2"], GF(3)),
                                    SEARCH_NODE_BUDGET),
                            check_search(9, 9 ** 8, budget=SEARCH_NODE_BUDGET)))
        props["mat2/GF(3)"] = {"ring_size": 81, "memo_pairs": 81 ** 2}
        props["zorn/GF(2)"].update(ring_size=256, memo_pairs=256 ** 2)
        return jobs, props


# --------------------------------------------------------------- cli-cold

def row(anchor: str, verdict: str, detail: str = "") -> str:
    """One CLI output line in the documented column layout."""
    return f"{anchor:<34} {verdict:<10} {detail}".rstrip()


MALFORMED_SAF = (   # (text, line the error must name)
    ("saf 1\nfield GF 4\ndim 1\n", 2),
    ("saf 1\nfield Q\ndim 2\nmul 1 1 3 1\n", 4),
    ("saf 1\nfield Q\ndim 2\nunit 1 0 0\n", 4),
    ("saf 2\nfield Q\ndim 1\n", 1),
    ("saf 1\nfield Q\ndim 2\nmul 1 1 1 1\nmul 1 1 1 2\n", 5),
)


@dataclass
class CliResult:
    code: int
    out: str
    err: str
    snapshot: Path | None   # the traced child's spans and counters


def run_cli(ctx: Context, args: list) -> CliResult:
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    snapshot = None
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "altrings", *args]
    else:
        snapshot = ctx.workdir / "child-trace.json.gz"
        cmd = [sys.executable, str(HERE / "trace_cli.py"), str(snapshot), *args]
    proc = subprocess.run(cmd, cwd=ctx.root, env=env, capture_output=True,
                          text=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr, snapshot)


def expect_cli(code: int, lines: list, extra=None):
    def check(res):
        if failure(res):
            return failure(res)
        got = oracle.stdout_lines(res.out)
        if res.code != code or got != lines:
            return f"exit {res.code}, stdout {got!r}, stderr {res.err[-200:]!r}"
        return (extra(res) if extra else None) or OK
    return check


def check_saf_export(path: Path):
    """zorn over GF(2) as written by `catalog --export`: its header, 32
    products, a two-sided unit and an idempotent, checked by own arithmetic."""
    def check(res):
        text = path.read_text()
        head = "saf 1\nfield GF 2\ndim 8\nunit 1 0 0 0 0 0 0 1\nidem 1 0 0 0 0 0 0 0\n"
        if not text.startswith(head):
            return f"header {text[:80]!r}"
        triples = {}
        for line in text[len(head):].splitlines():
            _, i, j, k, c = line.split()
            triples[(int(i) - 1, int(j) - 1, int(k) - 1)] = int(c)
        S = gen.Struct("zorn", 8, triples, (1, 0, 0, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 0, 0, 0))
        ar = Arith(S, 2)
        if len(triples) != 32:
            return f"{len(triples)} products, expected 32"
        if any(ar.mul(S.unit, ar.basis(i)) != ar.basis(i) or ar.mul(ar.basis(i), S.unit) != ar.basis(i)
               for i in range(8)):
            return "unit line is not a two-sided unit"
        if ar.mul(S.idem, S.idem) != S.idem:
            return "idem line is not idempotent"
        return None
    return check


def read_tmap(path: Path) -> list:
    lines = path.read_text().splitlines()
    size = int(lines[1].split()[1])
    values = [0] * size
    for line in lines[2:]:
        _, i, j = line.split()
        values[int(i)] = int(j)
    return values


def check_converse_file(path: Path, delta):
    ar = Arith(oracle.mat2_struct(), 3)

    def check(res):
        if failure(res):
            return failure(res)
        lines = oracle.stdout_lines(res.out)
        if res.code != 0 or len(lines) != 4 or not path.is_file():
            return f"exit {res.code}, stdout {lines!r}, stderr {res.err[-200:]!r}"
        values = read_tmap(path)
        bad = oracle.check_converse_table(ar, delta, values, oracle.mat2_commutator(3))
        if bad:
            return bad
        want = [row("search:converse-identity", "holds", "verified exhaustively"),
                row("search:converse-defect-central", "holds"),
                row("search:converse-additive", "holds", str(oracle.additive(ar, values))),
                row("search:converse-table", "holds", str(path))]
        return OK if lines == want else f"stdout {lines!r}"
    return check


def expect_parse_error(line: int):
    def check(res):
        if failure(res):
            return failure(res)
        if res.code == 3 and not res.out and f"line {line}" in res.err:
            return OK
        return f"exit {res.code}, stderr {res.err[-200:]!r}; expected exit 3 naming line {line}"
    return check


INFO_ZORN_GF2 = [
    row("info:field", "holds", "GF(2)"),
    row("info:dim", "holds", "8"),
    row("info:unit", "holds", "(1, 0, 0, 0, 0, 0, 0, 1)"),
    row("info:idempotent", "holds", "(1, 0, 0, 0, 0, 0, 0, 0)"),
    row("info:associative", "holds", "false"),
    row("info:alternative", "holds", "true"),
    row("info:flexible", "holds", "true"),
    # a Cayley algebra is central simple: centre and nucleus are the scalars
    row("info:center-dim", "holds", "1"),
    row("info:nucleus-dim", "holds", "1"),
    row("info:center-meet-nucleus-dim", "holds", "1"),
]


class CliCold:
    """One `python -m altrings` child per job: what a shell user pays, from
    interpreter start, import and the catalog build (with zorn's self-check)
    to .saf/.lmap/.tmap reads and writes.  The only workload that measures
    the cli layer and the catalog's file I/O."""

    name = "cli-cold"
    tail_percentile = 80

    def prepare(self, ctx):
        return None

    def build(self, ctx, data, seed: int, rnd: int):
        rng = rng_for(seed, self.name, rnd)
        wd = ctx.workdir / f"round{rnd}"
        wd.mkdir(parents=True, exist_ok=True)
        lmap, ad, saf, tmap, bad = (wd / f for f in ("D.lmap", "ad.lmap", "zorn2.saf",
                                                     "T.tmap", "bad.saf"))
        lmap.write_text(oracle.README_LMAP)
        delta = inner_derivation(oracle.mat2_struct(), 3, rng)
        ad.write_text("lmap 1\ndim 4\n" + "".join(
            "row " + " ".join(map(str, r)) + "\n" for r in delta))
        text, line = rng.choice(MALFORMED_SAF)
        bad.write_text(text)
        mat2_gf3 = ["--catalog", "mat2", "--field", "GFp:3"]

        def job(kind, args, check):
            return Job(kind, partial(run_cli, ctx, args), check)

        readme = oracle.README
        jobs = [
            job("readme check", ["check", "--catalog", "zorn", "--field", "Q", "--prop", "identities"],
                expect_cli(*readme["check-identities"])),
            job("readme peirce", ["peirce", "--catalog", "tri2", "--field", "Q", "--conditions"],
                expect_cli(*readme["peirce-tri2"])),
            job("readme decompose", ["decompose", "--catalog", "mat2", "--field", "Q", "--map", str(lmap)],
                expect_cli(*readme["decompose-readme"])),
            job("readme search", ["search", "--catalog", "product2", "--field", "GFp:2",
                                  "--mode", "exhaust", "--n", "2"],
                expect_cli(*readme["search-exhaust"])),
            job("export zorn/GF(2)", ["catalog", "--export", "zorn", "--field", "GFp:2", "--out", str(saf)],
                expect_cli(0, [row("catalog:export", "holds", str(saf))], check_saf_export(saf))),
            job("info --file", ["info", "--file", str(saf)], expect_cli(0, INFO_ZORN_GF2)),
            job("check --prime --file", ["check", "--prime", "--file", str(saf)],
                expect_cli(0, [row("check:prime", "holds",
                                   f"all {oracle.rays(2, 8)} rays have trivial annihilator")])),
            job("search converse", ["search", *mat2_gf3, "--mode", "converse", "--map", str(ad),
                                    "--seed", str(rng.randrange(2 ** 31)), "--out", str(tmap)],
                check_converse_file(tmap, delta)),
            job("search verify", ["search", *mat2_gf3, "--mode", "verify", "--map", str(tmap)],
                expect_cli(0, [row("search:lie-identity", "holds",
                                   f"mode exhaustive, checked {81 ** 2}")])),
            job("search defect", ["search", *mat2_gf3, "--mode", "defect", "--map", str(tmap)],
                expect_cli(0, [row("search:almost-additive", "holds",
                                   f"checked {81 * 82 // 2} pairs")])),
            job("malformed .saf", ["info", "--file", str(bad)], expect_parse_error(line)),
        ]
        return jobs, {"zorn/GF(2)": {"ring_size": 2 ** 8, "nonzero": 32},
                      "mat2/GF(3)": {"ring_size": 3 ** 4, "nonzero": 8},
                      "malformed_saf_line": line}


WORKLOADS = {w.name: w for w in (QSpaces(), Gfp(), CliCold())}
