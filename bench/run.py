#!/usr/bin/env python3
"""Benchmark for treealpha's exact searches.

Run from the repository root:

    python3 bench/run.py --workload patterns --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 [--out FILE]

One client in one thread issues one call at a time (a closed loop) on
inputs generated up front from ``--seed``. After one warm-up round, rounds
of the workload's fixed call list repeat until ``--seconds`` have passed.
Every answer is checked outside the timed region; a wrong answer exits with
status 1.

Times are reported in "ref" units: each call's time divided by the time of
a fixed reference kernel (``reference.py``) sampled next to it, so that the
host's slow and fast phases cancel. Raw seconds are printed as well.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with spans at the package's layer boundaries, and
prints the per-layer metrics. Human-readable lines come first; the last
line is one JSON object. ``--workload all`` runs every workload both ways in
child processes and prints everything, including the per-call metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5
REF_EVERY = 0.1  # seconds between reference samples
REF_REPEATS = 3  # a reference sample is the mean of this many kernel runs
LADDER = (50, 90, 99, 99.9)
OUT_DIR = ROOT / ".bench_out"

END_TO_END = {
    "wall_ref": "ref",
    "setup_s": "s",
    "call_ref.gmean": "ref",
    "peak_rss_mb": "MB",
    "definite_ratio": "ratio",
}

# per-layer metric -> unit; README.md says which end-to-end metric each should move
PER_LAYER = {
    "patterns.lt_free_upto.self_s": "s",
    "patterns.lt_free_upto.calls": "count",
    "patterns.lt_free_upto.members": "count",
    "patterns.lt_free_upto.members_per_s": "1/s",
    "graphs.line_graph.s": "s",
    "graphs.line_graph.calls": "count",
    "graphs.subdivide.s": "s",
    "graphs.subdivide.calls": "count",
    "patterns.find_pattern.self_s.s_ttt": "s",
    "patterns.find_pattern.self_s.k_tt": "s",
    "patterns.find_pattern.self_s.k_gamma_2": "s",
    "graphs.max_stable_set.calls.k_tt": "count",
    "treedecomp.minimal_triangulations.s": "s",
    "treedecomp.minimal_triangulations.calls": "count",
    "treedecomp.minimal_triangulations.triangulations": "count",
    "treedecomp.tree_alpha_exact.self_s": "s",
    "graphs.alpha_exact.s": "s",
    "graphs.alpha_exact.calls": "count",
    "graphs.max_stable_set.s": "s",
    "graphs.max_stable_set.calls": "count",
    "treedecomp.mwis.brute_s": "s",
    "treedecomp.mwis.brute_calls": "count",
    "treedecomp.validate_td.s": "s",
    "treedecomp.validate_td.calls": "count",
    "treedecomp.mwis.td_self_s": "s",
    "treedecomp.mwis.td_calls": "count",
    "treedecomp.mwis.td_states": "count",
    "treedecomp.assemble_td.self_s": "s",
    "treedecomp.assemble_td.bags": "count",
    "treedecomp.assemble_td.oracle_calls": "count",
    "treedecomp.assemble_td.oracle_calls_per_bag": "ratio",
    "bench.sep_oracle.s": "s",
    "graphs.components.calls": "count",
    "treedecomp.td_stats.s": "s",
    "trace_overhead_ratio": "ratio",
    "trace_coverage_ratio": "ratio",
}


class Refused(Exception):
    """The package could not be loaded from this checkout."""


def load_package() -> SimpleNamespace:
    """Import treealpha afresh from ROOT/src, dropping any earlier import."""
    for name in [m for m in sys.modules if m == "treealpha" or m.startswith("treealpha.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        mods = {m: importlib.import_module(f"treealpha.{m}")
                for m in ("graphs", "patterns", "treedecomp")}
    except ImportError as e:
        raise Refused(f"cannot import treealpha from {src}: {e}") from e
    if not Path(mods["graphs"].__file__).resolve().is_relative_to(ROOT / "src"):
        raise Refused(f"treealpha was imported from {mods['graphs'].__file__}, not {src}")
    return SimpleNamespace(**mods)


def setup(workload: str, seed: int):
    """Import plus input generation; returns the workload and the seconds taken."""
    t0 = perf_counter()
    bench = workloads.build(workload, load_package(), seed)
    return bench, perf_counter() - t0


class RefClock:
    """Times the reference kernel next to the calls.

    A sample is taken before a call when the last one is older than
    REF_EVERY, and after any call longer than that; such a call is divided
    by the mean of the samples on either side of it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent sampling, kept out of round wall times
        self.sample()

    def sample(self) -> float:
        t0 = perf_counter()
        for _ in range(REF_REPEATS):
            reference.kernel()
        self.taken = perf_counter()
        self.samples.append((self.taken - t0) / REF_REPEATS)
        self.spent += self.taken - t0
        return self.samples[-1]

    def before(self) -> float:
        if perf_counter() - self.taken > REF_EVERY:
            self.sample()
        return self.samples[-1]

    def around(self, before: float, seconds: float) -> float:
        return (before + self.sample()) / 2 if seconds > REF_EVERY else before


class Round(NamedTuple):
    answers: dict  # call name -> answer
    times: dict  # call name -> seconds
    errors: dict  # call name -> traceback
    wall: float  # seconds for the round, reference sampling left out
    refs: dict  # call name -> seconds / reference sample next to the call


def run_round(bench, tracer: Tracer | None = None, first_call_id: int = 0,
              clock: RefClock | None = None) -> Round:
    """One pass over the call list."""
    clock = clock or RefClock()
    answers: dict[str, object] = {}
    times: dict[str, float] = {}
    refs: dict[str, float] = {}
    errors: dict[str, str] = {}
    t_round, ref_spent = perf_counter(), clock.spent
    for i, call in enumerate(bench.calls):
        if tracer is not None:
            tracer.call_id = first_call_id + i
        ref = clock.before()
        t0 = perf_counter()
        try:
            answer = call.run(answers)
        except Exception:  # a refusal or crash is a failed call, the loop goes on
            errors[call.name] = traceback.format_exc()
            continue
        times[call.name] = perf_counter() - t0
        refs[call.name] = times[call.name] / clock.around(ref, times[call.name])
        answers[call.name] = answer
    wall = perf_counter() - t_round - (clock.spent - ref_spent)
    return Round(answers, times, errors, wall, refs)


def measure(bench, seconds: float, tracer: Tracer | None = None, between=None,
            clock: RefClock | None = None) -> list[Round]:
    """Rounds until seconds have passed, at least one; between() runs after each."""
    clock = clock or RefClock()
    rounds = []
    start = perf_counter()
    while not rounds or perf_counter() - start < seconds:
        rounds.append(run_round(bench, tracer, len(rounds) * len(bench.calls), clock))
        if between is not None:
            between()
    return rounds


def check_answers(bench, rounds) -> list[str]:
    """Certificate and recomputation checks on the first round's answers, and
    equality of every later round's answers with them."""
    wrong = []
    first = rounds[0].answers
    for call in bench.calls:
        if call.name not in first:
            continue
        try:
            call.check(first[call.name])
        except gate.WrongAnswer as e:
            wrong.append(f"{call.name}: {e}")
            continue
        want = call.key(first[call.name])
        for answers, *_ in rounds[1:]:
            if call.name in answers and call.key(answers[call.name]) != want:
                wrong.append(f"{call.name}: answer differs between rounds")
                break
    return wrong


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile of n samples."""
    return max(1, math.ceil(n * p / 100))


def percentile(sorted_values: list[float], p: float) -> float:
    return sorted_values[_rank(len(sorted_values), p) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it."""
    vs = sorted(values)
    p = max((p for p in LADDER if len(vs) - _rank(len(vs), p) >= 10), default=LADDER[0])
    return p, percentile(vs, p)


def per_call_median(bench, rounds, field: str = "refs") -> dict[str, float]:
    """Each call's median over the rounds, in ref units or (field="times") seconds."""
    out = {}
    for call in bench.calls:
        vs = [getattr(r, field)[call.name] for r in rounds if call.name in getattr(r, field)]
        if vs:
            out[call.name] = median(vs)
    return out


def end_to_end(bench, rounds, setup_s: float, ref_s: float, peak_rss_mb: float,
               lines: list[str]) -> dict:
    ref = per_call_median(bench, rounds)
    raw = per_call_median(bench, rounds, "times")
    samples = sorted(t * 1e3 for r in rounds for t in r.times.values())
    answers = rounds[0].answers
    definite = sum(1 for c in bench.calls if c.name in answers and c.definite(answers[c.name]))
    metrics = {
        "wall_ref": sum(ref.values()),
        "setup_s": setup_s,
        "call_ref.gmean": math.exp(sum(math.log(v) for v in ref.values()) / len(ref)),
        "peak_rss_mb": peak_rss_mb,
        "definite_ratio": definite / len(bench.calls),
    }
    lines.append(f"# {len(rounds)} rounds of {len(bench.calls)} calls, "
                 f"{len(samples)} call samples; each call's median round")
    # raw seconds and per-call metrics of the calls this workload makes, printed but not gated
    lines.append(f"ref_ms {ref_s * 1e3:.6f} ms (median reference sample; 1 ref on this host)")
    lines.append(f"wall_s {sum(raw.values()):.6f} s")
    lines.append(f"call_ref.p50 {median(ref.values()):.6f} ref")
    lines.append(f"call_ms.p50 {median(raw.values()) * 1e3:.6f} ms")
    kinds = sorted({c.kind for c in bench.calls}, key=[c.kind for c in bench.calls].index)
    for kind in kinds:
        names = [c.name for c in bench.calls if c.kind == kind]
        lines.append(f"{kind}_ref {sum(ref.get(n, 0.0) for n in names):.6f} ref "
                     f"({len(names)} calls)")
        lines.append(f"{kind}_s {sum(raw.get(n, 0.0) for n in names):.6f} s")
        if kind in ("alpha", "mwis_brute"):
            ts = [r.times[n] * 1e3 for r in rounds for n in names if n in r.times]
            p, v = tail(ts)
            lines.append(f"{kind}_ms.p50 {percentile(sorted(ts), 50):.6f} ms (n={len(ts)})")
            lines.append(f"{kind}_ms.tail {v:.6f} ms (p{p:g}, n={len(ts)})")
    p, v = tail(samples)
    lines.append(f"call_ms.tail {v:.6f} ms (p{p:g}, n={len(samples)})")
    refused = len(bench.calls) - definite
    lines.append(f"failed_ratio {refused / len(bench.calls):.6f} ratio "
                 f"({refused} of {len(bench.calls)} calls refused, inconclusive or raised)")
    return metrics


def work_counts(bench, rounds) -> dict[str, float]:
    """Work per round counted from outside, from the first round's answers."""
    answers = rounds[0].answers
    out: dict[str, float] = {}
    for call in bench.calls:
        if call.name in answers:
            for k, v in call.work(answers[call.name], answers).items():
                out[k] = out.get(k, 0) + v
    return out


def per_layer(bench, tracer: Tracer, traced, untraced, lines: list[str]) -> dict:
    per_round = []
    ncalls = len(bench.calls)
    work = work_counts(bench, traced)
    raw = per_call_median(bench, untraced, "times")
    lt_untraced = sum(raw[c.name] for c in bench.calls
                      if c.kind == "lt_free_upto" and c.name in raw)
    for r, wall in enumerate(rnd.wall for rnd in traced):
        lo = next(i for i, s in enumerate(tracer.spans) if s.call_id >= r * ncalls)
        hi = next((i for i, s in enumerate(tracer.spans) if s.call_id >= (r + 1) * ncalls), None)
        incl, self_s, calls, items, under = tracer.totals(lo, hi)
        m = {
            "patterns.lt_free_upto.self_s": self_s["patterns.lt_free_upto"],
            "patterns.lt_free_upto.calls": calls["patterns.lt_free_upto"],
            "patterns.lt_free_upto.members": work.get("members", 0),
            "patterns.lt_free_upto.members_per_s":
                work.get("members", 0) / lt_untraced if lt_untraced else 0.0,
            "graphs.line_graph.s": incl["graphs.line_graph"],
            "graphs.line_graph.calls": calls["graphs.line_graph"],
            "graphs.subdivide.s": incl["graphs.subdivide"],
            "graphs.subdivide.calls": calls["graphs.subdivide"],
            "graphs.max_stable_set.calls.k_tt":
                under[("patterns.find_pattern.k_tt", "graphs.max_stable_set")],
            "treedecomp.minimal_triangulations.s": incl["treedecomp.minimal_triangulations"],
            "treedecomp.minimal_triangulations.calls": calls["treedecomp.minimal_triangulations"],
            "treedecomp.minimal_triangulations.triangulations":
                items["treedecomp.minimal_triangulations"],
            "treedecomp.tree_alpha_exact.self_s": self_s["treedecomp.tree_alpha_exact"],
            "graphs.alpha_exact.s": incl["graphs.alpha_exact"],
            "graphs.alpha_exact.calls": calls["graphs.alpha_exact"],
            "graphs.max_stable_set.s": incl["graphs.max_stable_set"],
            "graphs.max_stable_set.calls": calls["graphs.max_stable_set"],
            "treedecomp.mwis.brute_s": incl["treedecomp.mwis.brute"],
            "treedecomp.mwis.brute_calls": calls["treedecomp.mwis.brute"],
            "treedecomp.validate_td.s": incl["treedecomp.validate_td"],
            "treedecomp.validate_td.calls": calls["treedecomp.validate_td"],
            "treedecomp.mwis.td_self_s": self_s["treedecomp.mwis.td"],
            "treedecomp.mwis.td_calls": calls["treedecomp.mwis.td"],
            "treedecomp.mwis.td_states": work.get("td_states", 0),
            "treedecomp.assemble_td.self_s": self_s["treedecomp.assemble_td"],
            "treedecomp.assemble_td.bags": work.get("bags", 0),
            "treedecomp.assemble_td.oracle_calls": work.get("oracle_calls", 0),
            "treedecomp.assemble_td.oracle_calls_per_bag":
                work["oracle_calls"] / work["bags"] if work.get("bags") else 0.0,
            "bench.sep_oracle.s": incl["bench.sep_oracle"],
            "graphs.components.calls": calls["graphs.components"],
            "treedecomp.td_stats.s": incl["treedecomp.td_stats"],
            "trace_coverage_ratio": sum(self_s.values()) / wall,
        }
        for kind in ("s_ttt", "k_tt", "k_gamma_2"):
            m[f"patterns.find_pattern.self_s.{kind}"] = self_s[f"patterns.find_pattern.{kind}"]
        per_round.append((m, self_s, wall))
    metrics = {k: median(m[k] for m, _, _ in per_round) for k in per_round[0][0]}
    metrics["trace_overhead_ratio"] = (sum(per_call_median(bench, traced).values())
                                       / sum(per_call_median(bench, untraced).values()))
    shares: dict[str, float] = {}
    for _, self_s, wall in per_round:
        for name, s in self_s.items():
            shares[name] = shares.get(name, 0.0) + s / wall / len(per_round)
    lines.append(f"# traced: {len(traced)} rounds, {len(tracer.spans)} spans; "
                 "self-time share of traced wall time, largest first:")
    for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {name} {share:.4f}")
    return {k: metrics[k] for k in PER_LAYER}


def metadata(seed: int, seconds: int) -> dict:
    return {"python": platform.python_version(), "seed": seed, "nproc": os.cpu_count(),
            "seconds": seconds, "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        bench, t = setup(workload, seed)
        setup_times.append(t)
    lines = [f"# {json.dumps(metadata(seed, seconds))}", f"# workload {workload}"]
    clock = RefClock()
    run_round(bench, clock=clock)  # warm-up, not timed
    if not trace:
        # one more set-up after each round samples set-up time across the run
        rounds = measure(bench, seconds, clock=clock,
                         between=lambda: setup_times.append(setup(workload, seed)[1]))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        lines.append(f"# setup_s is the median of {len(setup_times)} set-ups")
        metrics = end_to_end(bench, rounds, median(setup_times), median(clock.samples),
                             peak, lines)
        units = END_TO_END
    else:
        untraced = measure(bench, seconds / 2, clock=clock)
        tracer = Tracer()
        tracer.install(vars(bench.mods), extra=[(bench, "sep_oracle", "bench.sep_oracle")])
        try:
            traced = measure(bench, seconds / 2, tracer, clock=clock)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
        metrics = per_layer(bench, tracer, traced, untraced, lines)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.dump(spans_file)
        lines.append(f"# spans written to {spans_file.relative_to(ROOT)}")
        units = PER_LAYER
    wrong = check_answers(bench, rounds)
    errors = {n: e for r in rounds for n, e in r.errors.items()}
    for name, tb in errors.items():
        print(f"call {name} raised:\n{tb}", file=sys.stderr)
    for w in wrong:
        print(f"WRONG ANSWER {w}", file=sys.stderr)
    attempted = sum(len(bench.calls) for _ in rounds)
    failed = sum(len(r.errors) for r in rounds)
    for name, value in metrics.items():
        lines.append(f"{name} {value:.6f} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 1 if wrong else 0


def run_all(seed: int, seconds: int, out: str | None) -> int:
    """Every workload untraced then traced, each in its own process."""
    results: dict[str, dict] = {}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            print(proc.stdout, end="")
            print(proc.stderr, end="", file=sys.stderr)
            status = status or proc.returncode
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            results[f"{workload}.trace{trace}"] = {
                "result": json.loads(last[0]) if last[0].startswith("{") else None,
                "lines": proc.stdout.strip().splitlines()[:-1],
            }
    if out:
        Path(out).write_text(json.dumps(
            {"meta": metadata(seed, seconds), "runs": results}, indent=1) + "\n")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="with --workload all: write every result here as JSON")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except Refused as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
