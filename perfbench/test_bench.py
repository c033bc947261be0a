"""Checks of the benchmark itself: python3 -m pytest perfbench/test_bench.py"""

import json
import sys
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import altrings  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
from workloads import OK, WORKLOADS, Context  # noqa: E402


def prime_job(seed: int):
    """The zorn/GF(3) primality job exactly as the gfp workload builds it."""
    wl = WORKLOADS["gfp"]
    ctx = Context(altrings, HERE.parent, HERE)
    jobs, _ = wl.build(ctx, wl.prepare(ctx), seed, 0)
    return next(j for j in jobs if j.kind == "prime zorn/GF(3)")


def timed(job):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = perf_counter()
        out = job.run()
        return perf_counter() - start, job.check(out)


def test_identical_jobs_do_not_share_caches():
    first, second = prime_job(7), prime_job(7)
    t1, v1 = timed(first)
    t2, v2 = timed(second)
    assert v1 == v2 == OK
    assert t2 >= 0.5 * t1, f"second identical job took {t2:.3f}s after {t1:.3f}s: a cache hit"


def test_reused_algebra_is_a_cache_hit():
    # the control for the test above: re-running one job object hits
    # Algebra._prime_cache, and the timing rule catches it
    job = prime_job(7)
    t1, _ = timed(job)
    t2, _ = timed(job)
    assert t2 < 0.5 * t1


def test_dense_rebase_is_seeded_and_keeps_its_shape():
    Z = altrings.catalog("zorn", altrings.QQ)
    zorn = gen.struct_from_tensor("zorn", Z.tensor, Z.unit, Z.idempotent)
    a = gen.dense_rebase(zorn, gen.rng_for(3, "x"))
    b = gen.dense_rebase(zorn, gen.rng_for(3, "x"))
    assert a.struct == b.struct
    low, high = gen.HEIGHT_BAND[8]
    assert low <= a.struct.height <= high
    assert a.struct.nonzero >= gen.DENSE_SHARE * 8 ** 3
    identity = [[int(i == j) for j in range(8)] for i in range(8)]
    assert gen.conjugate(identity, a.P, a.Q) == identity


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    for m in spec["per_layer"]:
        assert run.layer_unit(m["name"]) == m["unit"], m["name"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
