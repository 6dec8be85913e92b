"""Tests of the benchmark's seeded inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import collections
import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _keys(stream, n):
    return [workloads.entry_key(e) for e, _ in itertools.islice(stream, n)]


def test_same_seed_same_inputs_and_no_repeat_within_a_pool_pass():
    n = len(workloads.POOLS["verify-flat"]())
    first = list(itertools.islice(workloads.draw("verify-flat", 3), n))
    again = list(itertools.islice(workloads.draw("verify-flat", 3), n))
    assert first == again
    assert len({workloads.entry_key(e) for e, _ in first}) == n
    assert _keys(workloads.draw("verify-flat", 4), 20) != _keys(iter(first), 20)
    twisted = sum(1 for _, picard in first if picard is not None)
    assert 0.4 < twisted / n < 0.6


def test_every_prefix_holds_the_cost_classes_in_equal_share():
    golden = workloads.load_golden()
    classes = golden["cost_class"]["verify-deformed"]
    keys = _keys(workloads.draw("verify-deformed", 5, classes), 50)
    counts = collections.Counter(classes[k] for k in keys)
    assert sorted(counts) == list(range(10))
    assert max(counts.values()) - min(counts.values()) <= 1
    assert all(k in golden["verify-deformed"] for k in keys)


def test_one_cpu_sweeps_once_per_round_and_counts_each_sweep_once(
        monkeypatch, tmp_path):
    assert workloads.sweep_worker_counts(1) == (1,)
    assert workloads.sweep_worker_counts(2) == (1, 2)
    assert workloads.sweep_worker_counts(8) == (1, 2)

    def fake_sweep(workers, out_dir, golden_sha, outcome, reference, watch):
        watch.times.append(float(workers))
        watch.raw_times.append(float(workers))
        return 10, b"catalog"

    monkeypatch.setattr(workloads, "run_one_sweep", fake_sweep)
    result = workloads.run_sweep(0, workloads.sweep_worker_counts(1),
                                 workloads.Outcome(), tmp_path, lambda: 0.0)
    assert result["times"] == [1.0]
    assert result["wall_s"] == 1.0
    assert result["families"] == 10
    assert result["by_workers"] == {"1": [1.0]}
