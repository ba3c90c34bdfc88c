"""Self-test of the benchmark at toy sizes.

    python3 -m pytest perfbench -q
"""

import json
import random
from fractions import Fraction

import pytest

import run
import tracing
from checks import combine_moments, literal_weight, moments, tree_moments

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def quiet(*args, **kwargs):
    pass


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    result, _ = run.run(workload, 0, 0.1, bool(trace), size="tiny", log=quiet)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_a_corrupted_reference_digest_counts_as_a_failure():
    _, harness = run.run("combine-dense", 0, 0.1, False, size="tiny", log=quiet)
    digests = {key: stats["digest"] for key, stats in harness.stats.items()}
    result, _ = run.run("combine-dense", 0, 0.1, False, size="tiny", digests=digests, log=quiet)
    assert result["failed"] == 0
    digests["c0/j1"] = "0" * 64
    result, _ = run.run("combine-dense", 0, 0.1, False, size="tiny", digests=digests, log=quiet)
    assert result["failed"] > 0 and not result["correct"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_computed_counts_repeat_exactly(workload):
    first, _ = run.run(workload, 5, 0.1, True, size="tiny", log=quiet)
    second, _ = run.run(workload, 5, 0.3, True, size="tiny", log=quiet)
    for name in tracing.COMPUTED:
        assert first["metrics"][name] == second["metrics"][name], name


def test_moment_identities_match_the_literal_sum():
    rng = random.Random(1)
    for n in range(1, 7):
        u = [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(n + 1)]
        v = [Fraction(rng.randint(0, 9), rng.randint(1, 5)) for _ in range(n + 1)]
        out = [literal_weight(u, v, n, w) for w in range(2 * n + 1)]
        assert moments(out) == combine_moments(moments(u), moments(v), n)


def test_tree_moments_match_the_program():
    run.load_cli()
    from plotkin_wef import ensemble_wef, tree_from_active_set

    rng = random.Random(2)
    for m in range(1, 6):
        active = rng.sample(range(1 << m), rng.randint(0, 1 << m))
        mask = sum(1 << i for i in active)
        spectrum = ensemble_wef(tree_from_active_set(m, active))
        assert moments(spectrum.coeffs) == tree_moments(m, mask)
