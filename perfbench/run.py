"""altrings benchmark: verdict latency end to end, and per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for the jobs and why each was chosen):
q-spaces, gfp, cli-cold; ``--workload all`` runs the three in turn.  Each
run is a closed loop: one caller, jobs back to back, at most one child
process at a time.  Set-up is measured SETUP_REPEATS times, each in a fresh
worker process (start, import, inputs built); one more worker then runs
whole rounds of jobs for ``--seconds`` seconds.  Every job is checked by an
independent oracle.

Times are scaled to reference speed (probe.py): each is multiplied by
probe.REFERENCE_S over the time a fixed stdlib-only probe took around it,
because a shared virtual machine changes speed by up to 1.8x in phases of
seconds to minutes.  The run and every process it starts are kept on one
CPU, the one the probe measures.  The run's metadata holds the same four
timings as measured (``measured``).

End-to-end metrics (``--trace 0``):
  setup_s        median of the set-up samples: worker start until the first
                 job can start (import plus building every input)
  run_s          wall time of one round's jobs, averaged over the run's rounds
  job_p50_ms     median of every job time the run recorded
  job_tail_ms    the workload's fixed tail percentile of those job times; the
                 worker runs enough rounds to leave at least ten jobs beyond it
  peak_rss_mb    worker high-water RSS over set-up and round 0 (cli-cold: the
                 largest CLI child)
  correct_ratio  1 - fail_ratio: jobs whose verdict, witness, dimension or
                 exit code the oracle accepted, or that raised as expected
  decided_ratio  1 - undecided_ratio: jobs not UNDECIDED on a known truth
The two ratios enter BENCHMARK.json as complements because a metric there
must never be 0; fail_ratio and undecided_ratio are printed as well.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  The line before it holds the run's
metadata.  Spans of a traced run are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import select
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic, perf_counter

from probe import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("q-spaces", "gfp", "cli-cold")
SETUP_REPEATS = 5
DEADLINE_S = 170          # the whole run, all workers included
OK, UNDECIDED = "ok", "undecided"

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms",
    "peak_rss_mb": "MB", "correct_ratio": "ratio", "decided_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def read_output(proc, deadline: float, until_line: bool) -> bytes:
    """Read the worker's stdout up to a first newline (or EOF) by the deadline."""
    fd = proc.stdout.fileno()
    buf = b""
    while not (until_line and b"\n" in buf):
        remaining = deadline - monotonic()
        if remaining <= 0:
            raise BenchError("worker exceeded the run deadline")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        buf += chunk
    return buf


def worker(args: list, deadline: float, setup_only: bool):
    """Start one worker.  Set-up only: returns its set-up time as measured
    and at reference speed, by the probe the worker ran at its start and
    end (in its own process, so on the CPU that did the set-up).  Otherwise
    returns its final JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0)
    try:
        first = read_output(proc, deadline, until_line=True)
        elapsed = perf_counter() - start
        line, _, rest = first.partition(b"\n")
        if not line.startswith(b"ready "):
            raise BenchError(f"worker failed during set-up (exit {proc.wait()})")
        _, probe_s, probing = line.split()
        setup = elapsed - float(probing)
        rest += read_output(proc, deadline, until_line=False)
        code = proc.wait(timeout=max(1.0, deadline - monotonic()))
        if code != 0:
            raise BenchError(f"worker exited with {code}")
        if setup_only:
            return setup, scaled(setup, float(probe_s))
        return json.loads(rest.decode().strip().splitlines()[-1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def job_times(res: dict, col: int) -> list:
    """Every job time the run recorded, sorted: col 2 as measured, col 3 at
    reference speed (a traced run's untraced baseline, round -1, left out)."""
    return sorted(rec[col] for rec in res["jobs"] if rec[1] >= 0)


def timings(res: dict, setups: list, at_reference: bool) -> dict:
    jobs = job_times(res, 3 if at_reference else 2)
    return {
        "setup_s": median(s[at_reference] for s in setups),
        "run_s": sum(jobs) / len(res["round_times"]),
        "job_p50_ms": 1e3 * median(jobs),
        "job_tail_ms": 1e3 * nearest_rank(jobs, res["tail_percentile"]),
    }


def end_to_end(res: dict, setups: list) -> dict:
    verdicts = [v for *_, v in res["jobs"]]
    n = len(verdicts)
    values = {
        **timings(res, setups, True),
        "peak_rss_mb": res["rss_kb"] / 1024,
        "correct_ratio": 1 - sum(v not in (OK, UNDECIDED) for v in verdicts) / n,
        "decided_ratio": 1 - verdicts.count(UNDECIDED) / n,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "altrings").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = [worker(args, deadline, setup_only=True) for _ in range(SETUP_REPEATS)]
    res = worker(args, deadline, setup_only=False)
    failures = [(kind, rnd, v) for kind, rnd, *_, v in res["jobs"] if v not in (OK, UNDECIDED)]
    for kind, rnd, v in failures[:10]:
        print(f"FAILED {name} round {rnd} {kind}: {v}", file=sys.stderr)
    n = len(res["jobs"])
    e2e = end_to_end(res, setups)
    q = res["tail_percentile"]
    times = job_times(res, 3)
    meta = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "git_revision": git_revision(),
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "jobs": n, "jobs_per_round": res["jobs_per_round"],
        "rounds": len(res["round_times"]), "tail_percentile": q,
        "measured": timings(res, setups, False), "round_times_s": res["round_times"],
        "jobs_beyond_tail": len(times) - math.ceil(q / 100 * len(times)),
        "undecided": sum(v == UNDECIDED for *_, v in res["jobs"]),
        "setup_samples_s": [s[0] for s in setups], "input_properties": res["props"],
    }
    if trace:
        meta["spans_file"] = res["spans_file"]
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
    else:
        metrics = e2e
    return {"meta": meta, "result": {"correct": not failures, "attempted": n,
                                     "failed": len(failures), "metrics": metrics},
            "e2e": e2e}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if ".us_per_" in name:
        return "us"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def report(out: dict):
    """Human-readable lines: every end-to-end metric, fail and undecided ratios."""
    meta, e2e = out["meta"], out["e2e"]
    print(f"# {meta['workload']}  seed {meta['seed']}  {meta['jobs']} jobs in "
          f"{meta['rounds']} rounds, tail = p{meta['tail_percentile']}")
    attempted, failed = out["result"]["attempted"], out["result"]["failed"]
    if meta["trace"]:
        for k, m in out["result"]["metrics"].items():
            print(f"#   {k:<28} {m['value']:>14.6g} {m['unit']}")
    else:
        for k, m in e2e.items():
            print(f"#   {k:<14} {m['value']:>12.6g} {m['unit']}")
    print(f"#   {'fail_ratio':<14} {failed / attempted:>12.6g} ratio")
    print(f"#   {'undecided_ratio':<14} {meta['undecided'] / attempted:>12.6g} ratio")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "altrings" / "__init__.py").is_file():
        print(f"run.py: no altrings source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One CPU for this process and every process it starts: the probe then
    # measures the CPU that runs the jobs, CLI children included, and no job
    # moves between CPUs of different speed (see probe.py).
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):   # no affinity on this platform
        pass
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for name in names:
            deadline = monotonic() + DEADLINE_S
            outs[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(outs[name])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({n: {"meta": o["meta"], "result": o["result"]} for n, o in outs.items()}))
    else:
        out = outs[args.workload]
        print(json.dumps({"meta": out["meta"]}))
        print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
