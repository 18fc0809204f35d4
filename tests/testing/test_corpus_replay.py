"""Replay every pinned regression entry in ``tests/corpus/``.

Every entry uses the one corpus schema and is replayed through
:func:`repro.testing.scenarios.replay_entry` — the same function the
``--replay`` CLI calls.  Replay enforces each scenario's pins:

* program entries (list / contraction) replay clean on their recorded
  backend;
* crash entries re-arm their crash schedule, which must still fire;
* snapshot entries must still sample the differential rig, and their
  persistence exercise must pass without overshooting its crash point;
* fault-recovery entries must recover, land in their pinned outcome
  class and fire their pinned fault family at least ``min_faults``
  times;
* serve entries must reproduce their decision digest, status counts and
  shed / quarantined request ids.

A failure here means a previously-fixed bug has regressed.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.testing.corpus import (
    CORPUS_SCHEMA,
    corpus_paths,
    default_corpus_dir,
    load_entry,
    make_entry,
    save_entry,
)
from repro.testing.fuzz import main
from repro.testing.ops import OpSequence
from repro.testing.scenarios import SCENARIOS, replay_entry

PATHS = corpus_paths(default_corpus_dir())
IDS = [os.path.basename(p) for p in PATHS]

# One pinned reproducer per fault family.
REQUIRED_FAMILIES = {"dead-processor", "torn-write", "bit-flip", "hang"}


def _entries(scenario):
    return [
        (p, e) for p in PATHS
        if (e := load_entry(p))["scenario"] == scenario
    ]


def test_corpus_is_seeded():
    assert PATHS, "tests/corpus/ must hold at least one pinned entry"


@pytest.mark.parametrize("path", PATHS, ids=IDS)
def test_corpus_entry_replays_clean(path):
    out = replay_entry(path)
    assert out.ok, f"{os.path.basename(path)}: {out.failure}"


def test_corpus_schema_fields():
    for path in PATHS:
        entry = load_entry(path)
        assert entry["schema"] == CORPUS_SCHEMA, path
        assert entry["scenario"] in SCENARIOS, path
        assert {"note", "config", "expect"} <= entry.keys(), path
        if "program" in entry:
            seq = OpSequence.from_json(entry["program"])
            assert seq.scenario in ("list", "contraction"), path
            assert seq.n0 >= 1, path
            assert isinstance(seq.ops, list), path
    crash = _entries("crash")
    assert crash and all("crash_seed" in e["config"] for _, e in crash)
    snaps = _entries("snapshots")
    assert snaps and all(
        {"snapshot_seed", "snapshot_exercise"} <= e["config"].keys()
        for _, e in snaps
    )


def test_corpus_carries_one_entry_per_fault_family():
    entries = _entries("faults")
    assert len(entries) >= 4
    families = set()
    for _, entry in entries:
        assert {"plan", "policy"} <= entry["config"].keys()
        assert {"outcome", "fault_substring", "min_faults"} <= (
            entry["expect"].keys()
        )
        assert "program" in entry
        families.add(entry["expect"]["fault_substring"])
    assert REQUIRED_FAMILIES <= families


def test_fault_replay_is_deterministic():
    for path, _ in _entries("faults"):
        r1, r2 = replay_entry(path).report, replay_entry(path).report
        assert r1.outcome == r2.outcome
        assert r1.answers == r2.answers
        assert r1.faults == r2.faults


def test_corpus_has_the_four_pinned_regimes():
    pinned = [
        e for p, e in _entries("serve")
        if os.path.basename(p).startswith("pinned-serve-")
    ]
    assert len(pinned) >= 4
    for entry in pinned:
        assert set(entry["expect"]) >= {
            "digest", "statuses", "shed_ids", "quarantined_ids"
        }
    joined = " ".join(e["note"] for e in pinned)
    for regime in ("shed", "quarantine", "demotion", "breaker"):
        assert regime in joined, f"no pinned entry covers {regime!r}"


# ---------------------------------------------------------------------------
# replay enforces each pin: a tampered entry must fail
# ---------------------------------------------------------------------------


def _tampered(tmp_path, scenario, edit):
    path, entry = _entries(scenario)[0]
    entry = copy.deepcopy(entry)
    edit(entry)
    out = tmp_path / os.path.basename(path)
    out.write_text(json.dumps(entry))
    return str(out)


def _query_only(entry):
    entry["program"]["ops"] = [["range", 0, 1]]


def _overshoot(entry):
    # seed 6 arms the save crash past the three SnapshotIO stages
    entry["config"].update(
        snapshot_exercise="save-crash", exercise_seed=6,
        exercise_backend="flat",
    )


def _set(section, key, value):
    def edit(entry):
        entry[section][key] = value

    return edit


@pytest.mark.parametrize(
    "scenario,edit,reason",
    [
        ("crash", _query_only, "crash schedule no longer fires"),
        ("snapshots", _query_only, "snapshot rig no longer samples"),
        ("snapshots", _overshoot, "overshoot"),
        ("faults", _set("expect", "outcome", "aborted"), "outcome"),
        ("faults", _set("expect", "fault_substring", "no-such"), "no-such"),
        ("faults", _set("expect", "min_faults", 10**6), "min_faults"),
        ("serve", _set("expect", "digest", "0" * 16), "digest"),
        ("serve", _set("expect", "shed_ids", [-1]), "shed_ids"),
    ],
    ids=[
        "crash-unfired", "snapshot-unsampled", "snapshot-overshoot",
        "fault-outcome", "fault-family", "fault-count", "serve-digest",
        "serve-shed",
    ],
)
def test_replay_rejects_a_tampered_entry(tmp_path, scenario, edit, reason):
    out = replay_entry(_tampered(tmp_path, scenario, edit))
    assert not out.ok
    assert reason in out.failure


# ---------------------------------------------------------------------------
# the --replay CLI
# ---------------------------------------------------------------------------


SNAPSHOT_PATHS = [
    p for p in PATHS if os.path.basename(p).startswith("pinned-snapshot-")
]


@pytest.mark.parametrize(
    "path", SNAPSHOT_PATHS,
    ids=[os.path.basename(p) for p in SNAPSHOT_PATHS],
)
def test_cli_replay_drives_the_snapshot_rig_and_exercise(
    path, capsys, monkeypatch
):
    import repro.snapshots.fuzz as snapshot_fuzz

    ran = []
    real = snapshot_fuzz.run_exercise

    def spy(name, seed, *, backend="flat"):
        ran.append(name)
        return real(name, seed, backend=backend)

    monkeypatch.setattr(snapshot_fuzz, "run_exercise", spy)
    assert main(["--replay", path]) == 0
    out = capsys.readouterr().out
    config = load_entry(path)["config"]
    assert ran == [config["snapshot_exercise"]]
    sampled = int(out.split("snapshots=")[1].split()[0])
    assert sampled > 0, out


def test_cli_replay_unknown_schema_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"schema": "someone-elses-corpus/3"}))
    assert main(["--replay", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "someone-elses-corpus/3" in err


def test_cli_replay_unknown_scenario_is_a_usage_error(tmp_path, capsys):
    entry = make_entry("no-such-scenario", {})
    assert main(["--replay", save_entry(entry, str(tmp_path))]) == 2
    assert "no-such-scenario" in capsys.readouterr().err
