"""Smoke tests for the model-based fuzzing subsystem (ISSUE tentpole).

These keep the CI cost low (small op counts); the heavyweight acceptance
loads (3 seeds x 2000 ops) run in the dedicated ``fuzz-smoke`` CI job.
"""

from __future__ import annotations

import json

import pytest

from repro.testing import generate, run_sequence
from repro.testing.corpus import make_entry, save_entry
from repro.testing.fuzz import main
from repro.testing.ops import OpSequence

SCENARIOS = ["list", "contraction"]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_clean_both_backends(scenario, seed):
    n_ops = 120 if scenario == "list" else 25
    report = run_sequence(
        generate(scenario, seed, n_ops), backend="both", check_every=1
    )
    assert report.ok, report.failure
    assert report.ops_executed == n_ops
    assert report.checks == n_ops + 1  # per-op audits + final audit


@pytest.mark.parametrize("backend", ["reference", "flat"])
def test_fuzz_single_backend(backend):
    report = run_sequence(generate("list", 3, 80), backend=backend)
    assert report.ok, report.failure


def test_fuzz_check_every_sparser_audits():
    seq = generate("list", 5, 100)
    dense = run_sequence(seq, backend="both", check_every=1)
    sparse = run_sequence(seq, backend="both", check_every=25)
    assert dense.ok and sparse.ok
    assert sparse.checks < dense.checks


def test_sequential_oracle_agrees():
    report = run_sequence(
        generate("contraction", 2, 20), backend="both", oracle="sequential"
    )
    assert report.ok, report.failure


@pytest.mark.parametrize("ring", ["mod97", "boolean"])
def test_contraction_heavy_profile_clean(ring):
    """The PR6 ``contraction-heavy`` profile replays clean on both
    backends; the boolean run pins the python-kernel fallback."""
    seq = generate(
        "contraction", 9, 25, ring=ring, profile="contraction-heavy"
    )
    assert seq.meta["profile"] == "contraction-heavy"
    report = run_sequence(seq, backend="both", check_every=1)
    assert report.ok, report.failure


def test_contraction_heavy_widens_batches():
    seq = generate("contraction", 4, 60, profile="contraction-heavy")
    widest = max(len(op[1]) for op in seq.ops)
    assert widest > 4  # default profile caps batches at 4


def test_profile_is_scenario_scoped():
    from repro.errors import InvalidParameterError

    with pytest.raises(InvalidParameterError):
        generate("contraction", 0, 10, profile="batch")
    with pytest.raises(InvalidParameterError):
        generate("list", 0, 10, profile="contraction-heavy")


def test_generator_determinism_and_roundtrip():
    a = generate("list", 11, 60)
    b = generate("list", 11, 60)
    assert a.to_json() == b.to_json()
    again = OpSequence.loads(a.dumps())
    assert again.to_json() == a.to_json()
    # JSON payload is plain data (replayable from disk).
    json.loads(a.dumps())


def test_generator_distinct_seeds_differ():
    assert generate("list", 0, 60).to_json() != generate("list", 1, 60).to_json()


def test_cli_main_clean_run():
    rc = main(
        ["--seed", "0", "--ops", "60", "--backend", "both", "--no-save"]
    )
    assert rc == 0


def test_cli_replay_corpus_entry(tmp_path):
    seq = generate("list", 7, 40)
    entry = make_entry("list", {"backend": "both"}, program=seq)
    path = save_entry(entry, str(tmp_path))
    assert main(["--replay", path, "--backend", "both"]) == 0


def test_cli_crash_scenario_gates_on_fired_crashes(capsys):
    rc = main(
        ["--scenario", "crash", "--runs", "2", "--ops", "20", "--no-save",
         "--quiet", "--require-coverage"]
    )
    assert rc == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("[crash] 2 runs")
    assert "crash-fired=2" in summary and "coverage 1/1" in summary
    crashes = int(summary.split("crashes=")[1].split()[0])
    assert crashes >= 2


def test_cli_require_coverage_fails_on_a_missing_class(capsys):
    rc = main(
        ["--scenario", "faults", "--runs", "1", "--ops", "10", "--no-save",
         "--require-coverage"]
    )
    assert rc == 2
    assert "coverage failure" in capsys.readouterr().err
