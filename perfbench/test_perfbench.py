"""Fast checks of the benchmark's own reference code (no program import)."""
import itertools
import json

import numpy as np
import pytest

import reference as ref
import spans
import compare
from compare import verdict


def brute_auc(scores, labels):
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    wins = sum(1.0 if p > n else 0.5 if p == n else 0.0
               for p, n in itertools.product(pos, neg))
    return wins / (len(pos) * len(neg))


@pytest.mark.parametrize("seed", range(6))
def test_rank_auc_matches_pairwise_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    # coarse scores force ties, including ties across the two classes
    scores = rng.integers(0, 6, n) / 5.0
    labels = rng.random(n) < 0.4
    labels[0], labels[1] = True, False
    assert ref.rank_auc(scores, labels) == pytest.approx(brute_auc(scores, labels), abs=1e-12)


def test_rank_auc_extremes_and_degenerate_labels():
    assert ref.rank_auc([0.1, 0.2, 0.9, 0.8], [0, 0, 1, 1]) == 1.0
    assert ref.rank_auc([0.9, 0.8, 0.1, 0.2], [0, 0, 1, 1]) == 0.0
    assert ref.rank_auc([0.5, 0.5, 0.5], [1, 0, 0]) == 0.5
    with pytest.raises(ValueError):
        ref.rank_auc([0.1, 0.2], [1, 1])


def test_grid_weights_normalize_and_ignore_shift():
    elbos = np.array([-1000.0, -1001.0, -1003.0])
    w = ref.grid_weights(elbos)
    expect = np.exp([0.0, -1.0, -3.0])
    assert np.allclose(w, expect / expect.sum(), rtol=0, atol=1e-15)
    assert np.allclose(ref.grid_weights(elbos + 5e5), w, rtol=0, atol=1e-15)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)


def test_weighted_average_and_effect():
    w = [0.25, 0.75]
    a = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
    assert np.array_equal(ref.weighted_average(w, a), [2.5, 5.0])
    # identical states give back the state whatever the weights
    same = [np.array([0.3, 0.7])] * 3
    assert np.allclose(ref.weighted_average([0.2, 0.3, 0.5], same), [0.3, 0.7],
                       rtol=0, atol=1e-15)
    pi = np.array([0.5, 1.0])
    alpha = np.array([0.2, 0.4, 1.0])
    mu = np.array([2.0, 3.0, -1.0])
    assert np.allclose(ref.effect_size(pi, alpha, mu, [0, 0, 1]), [0.2, 0.6, -1.0])
    # multi-task: pi~ broadcast over the task columns of (K, L) arrays
    alpha2 = np.array([[0.2, 1.0], [0.5, 0.5]])
    mu2 = np.array([[1.0, 2.0], [4.0, -2.0]])
    assert np.allclose(ref.effect_size(pi, alpha2, mu2), [[0.1, 1.0], [2.0, -1.0]])


def test_monotone_slack():
    assert ref.monotone([-10.0, -5.0, -5.0, -4.0])
    assert ref.monotone([-1e6, -1e6 - 1e-3])          # within 1e-8 (1 + |L|)
    assert not ref.monotone([-10.0, -10.1])


def test_self_time_nested_overlapping_and_clipped():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap (two threads),
    # [8, 12] runs past the parent's end and only [8, 10] counts
    assert spans.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) \
        == pytest.approx(10.0 - 4.0 - 2.0)
    assert spans.self_time(0.0, 4.0, []) == 4.0
    assert spans.self_time(0.0, 4.0, [(0.0, 4.0), (1.0, 2.0)]) == 0.0


def test_tracer_parents_counts_and_self_time():
    tracer = spans.Tracer()

    def leaf():
        return 1

    def outer():
        return tracer.call("leaf", leaf) + tracer.call("leaf", leaf)

    assert tracer.call("outer", outer) == 2
    assert tracer.calls == {"outer": 1, "leaf": 2}
    root = 0
    assert [s.parent for s in tracer.spans] == [None, root, root]
    kids = sum(s.end - s.start for s in tracer.spans[1:])
    whole = tracer.spans[0].end - tracer.spans[0].start
    assert tracer.self_time(root) == pytest.approx(whole - kids, abs=1e-12)
    assert len(tracer.within(root, "leaf")) == 2


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(base, [v * 1.5 for v in base], "lower", 0.2)[0] == "worse"
    assert verdict(base, [v * 0.5 for v in base], "lower", 0.2)[0] == "better"
    assert verdict(base, list(base), "lower", 0.2)[0] == "within"
    noisy = [5.0, 10.0, 15.0, 10.0, 12.0]
    assert verdict(noisy, noisy, "lower", 0.2)[0] == "unresolved"
    assert verdict([0.9] * 4, [0.95] * 4, "higher", 0.05)[0] == "better"


def _record(workload, value, correct=True, failed=0, result=True):
    res = {"correct": correct, "attempted": 11, "failed": failed,
           "metrics": {"fit_s": {"value": value, "unit": "s"}}}
    return {"workload": workload, "seed": 1, "trace": False,
            "result": res if result else None}


def test_compare_fails_on_missing_incorrect_or_more_failing_runs():
    before = [_record("w", 10.0, failed=1) for _ in range(3)]
    assert compare.faults(before, [_record("w", 5.0, failed=1) for _ in range(3)]) == []
    missing = [_record("w", 5.0, failed=1) for _ in range(2)] + [_record("w", 0, result=False)]
    assert len(compare.faults(before, missing)) == 2       # no result, and fewer results
    incorrect = [_record("w", 5.0, failed=1) for _ in range(2)] + [_record("w", 5.0, correct=False)]
    assert compare.faults(before, incorrect) == ["a run is not correct"]
    more = [_record("w", 5.0, failed=2)] + [_record("w", 5.0, failed=1) for _ in range(2)]
    assert len(compare.faults(before, more)) == 1


def test_compare_exit_status_and_withheld_gain(tmp_path, capsys):
    names = [w["name"] for w in compare.load_spec()["workloads"]]
    before, after = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    before.write_text("".join(json.dumps(_record(names[0], 10.0 + i / 10)) + "\n"
                              for i in range(4)))
    after.write_text("".join(json.dumps(_record(names[0], 5.0 + i / 10)) + "\n"
                             for i in range(4)))
    assert compare.main([str(before), str(after)]) == 0
    assert "better (bound" in capsys.readouterr().out
    lines = [_record(names[0], 5.0, correct=False)] + \
        [_record(names[0], 5.0 + i / 10) for i in range(2)] + [_record(names[0], 0, result=False)]
    after.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert compare.main([str(before), str(after)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and "better withheld" in out
