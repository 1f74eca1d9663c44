"""Self-test of the benchmark: toy-sized runs and the correctness gate.

Run from the repository root with ``python3 -m pytest bench/selftest -q``.
It is not part of the package's test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from treealpha.graphs import Graph, generate  # noqa: E402
from treealpha.patterns import PatternSpec, find_pattern, lt_free_upto  # noqa: E402
from treealpha.treedecomp import MWISInstance, TreeDecomposition, assemble_td, mwis  # noqa: E402


@pytest.fixture
def toy(monkeypatch):
    """Shrink every workload to a few small calls."""
    for name, value in {
        "FREE_HOSTS": (20, 25, 1),
        "PLANTED_S": (0, 1),
        "BUDGET_HOSTS": (24, 30, 1),
        "MEMBER_BUDGET": 20,
        "SPARSE_FIND": (20, 0.2, 1),
        "DENSE_FIND": (14, 0.5, 1),
        "TA_FIXED": ((6, 0.5, (1,)),),
        "TA_CYCLE": 6,
        "TA_FRESH": ((6, 7, 1),),
        "ALPHA_EACH": 1,
        "BRUTE_EACH": 1,
        "STRIPS": ((1, 30), (3, 8)),
        "ASSEMBLE": ((7, 0.3, 1),),
    }.items():
        monkeypatch.setattr(workloads, name, value)


def last_json(capsys) -> tuple[dict, str]:
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_prints_every_metric_with_its_unit(toy, capsys, workload, trace):
    assert run.run_one(workload, seed=3, seconds=0, trace=trace) == 0
    result, out = last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, unit in names.items():
        assert f"\n{name} " in out and out.split(f"\n{name} ")[1].split("\n")[0].endswith(unit)
    if not trace:
        kinds = {c.kind for c in workloads.build(workload, run.load_package(), 3).calls}
        for kind in kinds:
            assert f"\n{kind}_s " in out
    else:
        assert 0.5 < result["metrics"]["trace_coverage_ratio"]["value"] <= 1.0


def test_inputs_follow_the_seed(toy):
    first = workloads.build("stable_sets", run.load_package(), 5)
    again = workloads.build("stable_sets", run.load_package(), 5)
    other = workloads.build("stable_sets", run.load_package(), 6)
    answers = [run.run_round(b)[0] for b in (first, again, other)]
    keys = [[c.key(a[c.name]) for c in b.calls] for b, a in zip((first, again, other), answers)]
    assert keys[0] == keys[1] != keys[2]


def test_each_call_is_divided_by_a_reference_sample_next_to_it(toy, monkeypatch):
    clock = run.RefClock()
    monkeypatch.setattr(run, "REF_EVERY", 0.0)  # a fresh sample before and after every call
    r = run.run_round(workloads.build("tree_alpha", run.load_package(), 1), clock=clock)
    assert set(r.refs) == set(r.times)
    assert len(clock.samples) == 1 + 2 * len(r.times)
    pairs = zip(clock.samples[1::2], clock.samples[2::2])
    for (name, t), (before, after) in zip(r.times.items(), pairs):
        assert r.refs[name] == pytest.approx(t / ((before + after) / 2))


def test_wrong_answer_fails_the_run(toy, monkeypatch, capsys):
    build = workloads.build

    def corrupted(name, mods, seed):
        b = build(name, mods, seed)
        call = next(c for c in b.calls if c.kind == "alpha")
        real = call.run
        call.run = lambda ctx: real(ctx) + 1
        return b

    monkeypatch.setattr(workloads, "build", corrupted)
    assert run.run_one("stable_sets", seed=1, seconds=0, trace=False) == 1
    result, _ = last_json(capsys)
    assert result["correct"] is False and result["failed"] == 0


def test_answer_changing_between_rounds_is_wrong(toy):
    b = workloads.build("tree_alpha", run.load_package(), 1)
    rounds = [run.run_round(b) for _ in range(2)]
    name = b.calls[0].name
    rounds[1][0][name] += 1
    assert run.check_answers(b, rounds) == [f"{name}: answer differs between rounds"]


# -- the gate rejects corrupted answers -----------------------------------------------


def swap_one(mapping: dict, host_n: int) -> dict:
    """Move the image of one pattern vertex to a host vertex outside the image."""
    spare = next(v for v in range(host_n) if v not in mapping.values())
    bad = dict(mapping)
    bad[min(bad)] = spare
    return bad


def test_gate_rejects_an_embedding_with_one_vertex_swapped():
    host = Graph(12, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9),
                      (10, 11)])
    spec = PatternSpec("s_ttt", t=3)
    emb = find_pattern(host, spec)
    gate.check_find_pattern(emb, host, spec)
    emb.mapping = swap_one(emb.mapping, host.n)
    with pytest.raises(gate.WrongAnswer):
        gate.check_find_pattern(emb, host, spec)


def test_gate_rejects_a_swapped_lt_witness():
    wall = generate("wall", t=2)
    from treealpha.graphs import line_graph

    member, _ = line_graph(wall)
    host = Graph(member.n + 2, member.edges() + [(0, member.n), (3, member.n + 1)])
    verdict = lt_free_upto(host, t=2, size_cap=host.n)
    assert verdict.status == "witness"
    gate.check_lt(verdict, host, 2, host.n, 200_000)
    verdict.witness.mapping = swap_one(verdict.witness.mapping, host.n)
    with pytest.raises(gate.WrongAnswer):
        gate.check_lt(verdict, host, 2, host.n, 200_000)


def test_gate_rejects_a_false_free_verdict():
    from treealpha.graphs import line_graph
    from treealpha.patterns import LtVerdict

    member, _ = line_graph(generate("wall", t=2))
    with pytest.raises(gate.WrongAnswer):
        gate.check_lt(LtVerdict("free", member.n), member, 2, member.n, 200_000)


def test_gate_rejects_a_missed_pattern():
    host = generate("complete_bipartite", a=3, b=3)
    with pytest.raises(gate.WrongAnswer):
        gate.check_find_pattern(None, host, PatternSpec("k_tt", t=3))
    with pytest.raises(gate.WrongAnswer):
        gate.check_find_pattern(None, generate("s_ttt", t=3), PatternSpec("s_ttt", t=3))


def test_gate_rejects_a_non_stable_set():
    g = generate("path", k=4)
    weights = {0: 1, 1: 5, 2: 1, 3: 5}
    adj = gate.adjacency(g)
    best = gate.max_weight_stable(gate.masks_of(adj), weights)
    assert mwis(MWISInstance(g, weights))[1] == best == 10
    gate.check_mwis((frozenset({1, 3}), 10), adj, weights, best)
    with pytest.raises(gate.WrongAnswer):
        gate.check_mwis((frozenset({1, 2, 3}), 11), adj, weights, best)
    with pytest.raises(gate.WrongAnswer):
        gate.check_mwis((frozenset({0, 2}), 10), adj, weights, best)  # weight is 2
    with pytest.raises(gate.WrongAnswer):
        gate.check_mwis((frozenset({0, 3}), 6), adj, weights, best)  # not optimal


def test_gate_rejects_a_decomposition_with_an_uncovered_edge():
    g = generate("path", k=4)
    good = TreeDecomposition(Graph(3, [(0, 1), (1, 2)]),
                             {0: frozenset({0, 1}), 1: frozenset({1, 2}), 2: frozenset({2, 3})})
    gate.check_td(g, good)
    bad = TreeDecomposition(good.tree, {0: frozenset({0, 1}), 1: frozenset({2}),
                                        2: frozenset({2, 3})})
    with pytest.raises(gate.WrongAnswer, match=r"edge \(1,2\)"):
        gate.check_td(g, bad)
    res = assemble_td(g, workloads.Bench(run.load_package()).sep_oracle)
    workloads._check_assembled(g, res)
    res.td = bad
    with pytest.raises(gate.WrongAnswer):
        workloads._check_assembled(g, res)


def test_gate_recomputations_agree_with_the_package_on_small_graphs():
    from treealpha.graphs import alpha_exact
    from treealpha.treedecomp import tree_alpha_exact

    for seed in range(6):
        g = generate("gnp", n=7, p=0.4, seed=seed)
        masks = gate.masks_of(gate.adjacency(g))
        assert gate.alpha(masks) == alpha_exact(g)
        assert gate.tree_alpha(g) == tree_alpha_exact(g)
    g, td = workloads.grid_strip(run.load_package(), 3, 5)
    weights = {v: 1 + v % 4 for v in range(g.n)}
    masks = gate.masks_of(gate.adjacency(g))
    assert gate.strip_mwis(3, 5, weights) == gate.max_weight_stable(masks, weights)
    gate.check_td(g, td)
    assert gate.members_upto(2, 2) == 210
    assert sum(1 for _ in gate.wall_members(2, 1)) == 19


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
