"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_pool_members_are_deterministic():
    for workload in gen.WORKLOADS:
        names = gen.pool_names(workload)
        for name in names[:2] + names[-1:]:
            assert gen.encode(gen.pool_instance(name)) == gen.encode(gen.pool_instance(name))
        assert gen.pool_instance(names[0]) != gen.pool_instance(names[1])


def test_recorded_pools_match_the_generators():
    record = run.load_record()
    for workload in gen.WORKLOADS:
        pool = record["pools"][workload]
        names = gen.pool_names(workload)
        assert sorted(pool) == sorted(names)
        encoded = [(name, gen.encode(gen.pool_instance(name))) for name in names]
        assert gen.digest(encoded) == record["digests"][workload]
        for name, data in encoded:
            assert pool[name]["file"] == gen.sha(data)


def test_selection_depends_only_on_the_seed():
    record = run.load_record()
    for workload in gen.WORKLOADS:
        a = run.select(workload, 3, record)
        assert a == run.select(workload, 3, record)
        assert a != run.select(workload, 4, record)
        assert len(a) == len(set(a)) == gen.CORPUS_SIZE[workload]
        failing = {n for n, e in record["pools"][workload].items() if e["failure"]}
        assert failing <= set(a)


def test_closed_members_that_failed_keep_a_verdict():
    record = run.load_record()
    for workload in ("census", "snf-chain"):
        for name, entry in record["pools"][workload].items():
            if entry["failure"] not in (None, "timeout") \
                    and gen.pool_instance(name)["role"] == "closed":
                assert entry["admits"] in (True, False), name


def test_rank_filter_agrees_with_the_samples():
    known = {"closed_admits": 0, "closed_refuses": 0, "half_half": 1,
             "n2": 1, "two_piece_tree": 1}
    for name, betti in known.items():
        with open(os.path.join(ROOT, "samples", name + ".json"), encoding="utf-8") as fh:
            assert gen.betti(json.load(fh)) == betti


def test_bareiss_rank():
    assert gen.bareiss_rank([[2, 4], [1, 2]]) == 1
    assert gen.bareiss_rank([[0, 0], [0, 0]]) == 0
    assert gen.bareiss_rank([[0, 3, 1], [2, 0, 0], [2, 3, 1]]) == 2
    assert gen.bareiss_rank([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7].
    tree = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0],
            ["b", 5.0, 9.0, 0], ["c", 6.0, 7.0, 2], ["a", 7.5, 8.0, 2]]
    got = spans.self_times(tree)
    assert got["root"] == (1, 3.0)
    assert got["a"] == (2, 3.5)
    assert got["b"] == (1, 2.5)
    assert got["c"] == (1, 1.0)


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tautfol
    import tautfol.cli
    import tautfol.decide
    import tautfol.seifert

    original = tautfol.seifert.detect_relative
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tautfol.decide.detect_relative is tautfol.seifert.detect_relative
        assert tautfol.detect_relative is not original
        graph = tautfol.load_manifold(os.path.join(ROOT, "samples", "two_piece_tree.json"))
        tautfol.detect_tree(graph)
        assert tracer.spans == []  # inactive: calls pass straight through
        tracer.active = True
        tautfol.detect_tree(graph)
        tracer.active = False
        got = spans.self_times(tracer.spans)
        assert got["decide.detect_tree"][0] == 1
        assert got["seifert.detect_relative"][0] >= 1
        assert all(s[2] >= s[1] for s in tracer.spans)
    finally:
        tracer.uninstall()
    assert tautfol.decide.detect_relative is original
    assert tautfol.detect_relative is original
