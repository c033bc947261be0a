"""One benchmark process: set up a workload, then run its rounds.

Started by run.py in a fresh interpreter.  Prints ``ready`` on stdout once
set-up is done (import, per-process data, round 0's inputs), with the
probe's time around set-up and the time the probing took, then, unless
``--setup-only``, runs whole rounds back to back until ``--seconds`` have
passed and prints one JSON line with every job's kind, round, duration
(as measured and scaled to reference speed, see probe.py) and verdict.
With ``--trace 1`` it first runs round 0 untraced (the baseline for the
tracing overhead), then traced rounds, and adds the per-layer figures.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import shutil
import sys
import warnings
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

from probe import probe, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3     # so that run_s averages several draws of the seeded inputs


def min_rounds(tail_percentile: int, jobs_per_round: int) -> int:
    """Rounds needed for at least ten jobs beyond the tail percentile."""
    return max(MIN_ROUNDS, math.ceil(11 / ((1 - tail_percentile / 100) * jobs_per_round)))


def run_round(jobs, rnd, ctx, tracer, records) -> float:
    """Run jobs back to back, the probe before each and after the last;
    returns their summed wall time.  Each record holds the job's wall time
    and that time scaled by the probes around it."""
    from workloads import CliResult

    ctx.tracer = tracer
    total = 0.0
    probes, done = [], []
    for i, job in enumerate(jobs):
        probes.append(probe())
        if tracer is not None:
            tracer.job = f"{rnd}:{i}"
        start = perf_counter()
        try:
            out = job.run()
        except Exception as exc:   # an unexpected raise is a job outcome
            out = exc
        dur = perf_counter() - start
        try:
            verdict = job.check(out)
        except Exception as exc:
            verdict = f"outcome unreadable by the oracle: {exc!r}"
        if tracer is not None and isinstance(out, CliResult) and out.snapshot:
            merge_child(tracer, out.snapshot, dur)
        done.append((job.kind, dur, verdict))
        total += dur
    probes.append(probe())
    for i, (kind, dur, verdict) in enumerate(done):
        # a long job can outlast a phase, so weigh the probes before and
        # after it alike: three on each side where there are three
        local = (median(probes[max(0, i - 2):i + 1]) + median(probes[i + 1:i + 4])) / 2
        records.append((kind, rnd, dur, scaled(dur, local), verdict))
    if tracer is not None:
        tracer.flush()
    return total


def merge_child(tracer, path: Path, dur: float):
    """Fold a traced CLI child's spans and counters into this job."""
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        snap = json.load(fh)
    path.unlink()
    base = len(tracer.spans)
    for name, start, end, parent, _ in snap["spans"]:
        tracer.spans.append((name, start, end, parent + base if parent >= 0 else -1, tracer.job))
    tracer.counts.update(snap["counts"])
    tracer.counts["cli.process_time"] += dur - snap["counts"].get("cli.main_time", 0.0)


def overhead(records) -> float:
    """Traced round 0 over the untraced round -1 (the same jobs), both at
    reference speed so that a change in the host's speed between them
    does not count."""
    def total(rnd):
        return sum(rec[3] for rec in records if rec[1] == rnd)
    return total(0) / total(-1)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, setup_counts: Counter, rounds: int, traced_job_time: float,
                  overhead: float) -> dict:
    """Per-layer figures for one set-up plus one average traced round."""
    from tracer import LAYERS, self_times, top_level_time

    counts = tracer.counts

    def part(key):
        s = setup_counts.get(key, 0)
        return s + (counts.get(key, 0) - s) / rounds

    selfs = self_times(tracer.spans)
    m = {f"{layer}.self_s": selfs[(True, layer)] + selfs[(False, layer)] / rounds
         for layer in LAYERS}
    rows_q, rows_p = part("linalg.rows_folded.q"), part("linalg.rows_folded.gfp")
    rays, tuples = part("peirce.rays"), part("finite.tuples")
    constraint_rows, nodes = part("lietype.constraint_rows"), part("finite.search.nodes")
    m.update({
        "linalg.rows_folded.q": rows_q,
        "linalg.rows_folded.gfp": rows_p,
        "linalg.rank_gain_ratio": ratio(part("linalg.rank_gain"), rows_q + rows_p),
        "linalg.us_per_row.q": 1e6 * ratio(part("linalg.row_time.q"), rows_q),
        "linalg.eliminator_rebuilds": part("linalg.eliminator_rebuilds"),
        "fields.ops.q": part("fields.ops.q"),
        "fields.ops.gfp": part("fields.ops.gfp"),
        "algebra.mul_coords.calls": part("algebra.Algebra.mul_coords"),
        "algebra.mult_matrix.calls": part("algebra.mult_matrix.calls"),
        "algebra.classify_s": part("algebra.classify_time"),
        "catalog.build_s": part("catalog.build_time"),
        "catalog.parse.calls": part("catalog.parse.calls"),
        "peirce.rays": rays,
        "peirce.us_per_ray": 1e6 * ratio(part("peirce.ray_time"), rays),
        "peirce.context_s": part("peirce.context_time"),
        "peirce.cond4_vectors": part("peirce.cond4_vectors"),
        "peirce.conditions.calls": part("peirce.check_conditions_1_to_4.calls"),
        "lietype.constraint_rows": constraint_rows,
        "lietype.us_per_row": 1e6 * ratio(part("lietype.constraint_time"), constraint_rows),
        "lietype.decompose_ms": 1e3 * ratio(part("lietype.decompose_time"),
                                            part("lietype.decompose.calls")),
        "lietype.pn_span.calls": part("lietype.nested_commutator_span.calls"),
        "finite.tuples": tuples,
        "finite.us_per_tuple": 1e6 * ratio(part("finite.tuple_time"), tuples),
        "finite.ring_ops": part("finite.ring_ops"),
        "finite.memo_hit_ratio": (1 - ratio(part("finite.memo_distinct"), part("finite.ring_ops"))
                                  if part("finite.ring_ops") else 0.0),
        "finite.rings_built": part("finite.rings_built"),
        "finite.search.nodes": nodes,
        "finite.search.leaf_ratio": ratio(part("finite.search.leaves"), nodes),
        "cli.import_s": part("cli.import_time"),
        "cli.process_s": part("cli.process_time"),
        "trace.overhead_ratio": overhead,
        "trace.span_coverage": ratio(top_level_time(tracer.spans, setup=False), traced_job_time),
    })
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    start = perf_counter()
    first_probe = probe(3)
    probing = perf_counter() - start
    if not (SRC / "altrings" / "__init__.py").is_file():
        print(f"worker: no package source at {SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    sys.path.insert(0, str(SRC))

    from tracer import Tracer
    from workloads import WORKLOADS, Context

    wl = WORKLOADS[args.workload]
    alt = None
    if wl.name != "cli-cold":
        import altrings as alt
        if Path(alt.__file__).resolve().parent != SRC / "altrings":
            print(f"worker: imported altrings from {alt.__file__}", file=sys.stderr)
            return 2
    workdir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(alt, ROOT, workdir)
        tracer = Tracer() if args.trace else None
        in_process = tracer is not None and alt is not None
        if in_process:
            tracer.install()
        data = wl.prepare(ctx)
        jobs, props = wl.build(ctx, data, args.seed, 0)
        if in_process:
            tracer.uninstall()
        start = perf_counter()
        last_probe = probe(3)
        probing += perf_counter() - start
        # the probe's speed over set-up, and the time the probes took
        print(f"ready {(first_probe + last_probe) / 2} {probing}", flush=True)
        if args.setup_only:
            return 0

        records: list = []
        round_times: list = []
        start = perf_counter()
        if tracer is not None:
            tracer.flush()
            setup_counts = Counter(tracer.counts)
            run_round(jobs, -1, ctx, None, records)
        rnd = 0
        # a traced run reports per-round figures and no percentiles
        rounds_needed = 1 if tracer else min_rounds(wl.tail_percentile, len(jobs))
        while True:
            if rnd > 0 or tracer is not None:
                jobs = None
                jobs, _ = wl.build(ctx, data, args.seed, rnd)
            if in_process:
                tracer.install()
            round_times.append(run_round(jobs, rnd, ctx, tracer, records))
            if in_process:
                tracer.uninstall()
            if rnd == 0:
                # the high-water mark creeps up with every round (allocator
                # fragmentation), so the peak is taken over set-up and one round
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rnd += 1
            if rnd >= rounds_needed and perf_counter() - start >= args.seconds:
                break

        if alt is None:     # cli-cold: the largest CLI child
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result = {"jobs": records, "round_times": round_times, "jobs_per_round": len(jobs),
                  "tail_percentile": wl.tail_percentile, "rss_kb": rss_kb, "props": props}
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, setup_counts, rnd, sum(round_times),
                                             overhead(records))
            out = ROOT / ".perfbench" / f"spans-{wl.name}-seed{args.seed}.json.gz"
            tracer.dump(str(out))
            result["spans_file"] = str(out.relative_to(ROOT))
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
