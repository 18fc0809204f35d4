"""Each rule catches its planted fixture violation and accepts the
clean twin; engine-level behaviours (suppression, JSON report) ride
along."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.config import (
    JournalSpec,
    LintConfig,
    ParityPair,
    REPO_CONFIG,
    SnapshotSpec,
)
from repro.lint.engine import SCHEMA, run_lint
from repro.lint.rules import (
    BackendParityRule,
    BareRaiseRule,
    ExportHygieneRule,
    JournalCoverageRule,
    RandomnessRule,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _run(targets, rules):
    return run_lint(FIXTURES, targets, rules)


def _rules_of(report):
    return sorted(f.rule for f in report.findings)


# ---------------------------------------------------------------------------
# R001 — bare builtin raise
# ---------------------------------------------------------------------------


def test_r001_flags_planted_builtin_raises():
    report = _run(["r001_bad.py"], [BareRaiseRule(REPO_CONFIG)])
    assert _rules_of(report) == ["R001", "R001"]
    messages = " ".join(f.message for f in report.findings)
    assert "KeyError" in messages and "ValueError" in messages
    # TypeError is an allowed programming-error signal.
    assert "TypeError" not in messages


def test_r001_clean_twin_passes():
    report = _run(["r001_good.py"], [BareRaiseRule(REPO_CONFIG)])
    assert report.clean


def test_r001_pragma_suppression():
    report = _run(["r001_suppressed.py"], [BareRaiseRule(REPO_CONFIG)])
    assert report.clean


# ---------------------------------------------------------------------------
# R002 — unsanctioned randomness
# ---------------------------------------------------------------------------


def test_r002_flags_planted_randomness():
    report = _run(["r002_bad.py"], [RandomnessRule(REPO_CONFIG)])
    assert _rules_of(report) == ["R002", "R002", "R002"]
    joined = " ".join(f.message for f in report.findings)
    assert "global RNG" in joined
    assert "urandom" in joined
    assert "without a seed" in joined


def test_r002_registered_seam_is_exempt():
    config = LintConfig(
        rng_seams=frozenset(
            {"r002_bad.py::draw", "r002_bad.py::token", "r002_bad.py::fresh_rng"}
        )
    )
    report = _run(["r002_bad.py"], [RandomnessRule(config)])
    assert report.clean


def test_r002_clean_twin_passes():
    report = _run(["r002_good.py"], [RandomnessRule(REPO_CONFIG)])
    assert report.clean


# ---------------------------------------------------------------------------
# R003 — backend API parity
# ---------------------------------------------------------------------------

_PARITY_CONFIG = LintConfig(
    parity_pairs=(
        ParityPair(
            name="store",
            kind="class",
            ref_path="parity_ref.py",
            ref_symbol="Store",
            flat_path="parity_flat_bad.py",
            flat_symbol="FlatStore",
        ),
        ParityPair(
            name="activate",
            kind="function",
            ref_path="parity_ref.py",
            ref_symbol="activate",
            flat_path="parity_flat_bad.py",
            flat_symbol="flat_activate",
        ),
    )
)


def test_r003_flags_every_planted_drift():
    report = _run(
        ["parity_ref.py", "parity_flat_bad.py"],
        [BackendParityRule(_PARITY_CONFIG)],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 5, messages
    joined = " ".join(messages)
    assert "parameter drift on 'insert'" in joined
    assert "lacks public member 'delete'" in joined
    assert "'depth' is a property" in joined
    assert "grew public member 'compact'" in joined
    assert "parameter drift — activate" in joined


def test_r003_allow_extra_registry_silences_growth():
    config = LintConfig(
        parity_pairs=(
            ParityPair(
                name="store",
                kind="class",
                ref_path="parity_ref.py",
                ref_symbol="Store",
                flat_path="parity_flat_bad.py",
                flat_symbol="FlatStore",
                allow_extra_flat=frozenset({"compact"}),
                notes="test: compact registered",
            ),
        )
    )
    report = _run(
        ["parity_ref.py", "parity_flat_bad.py"],
        [BackendParityRule(config)],
    )
    assert all("compact" not in f.message for f in report.findings)


def test_r003_contraction_trace_pair_flags_planted_drift():
    """The contraction-trace pair shape (RakeTrace vs FlatContraction)
    with every drift class planted on the flat side."""
    config = LintConfig(
        parity_pairs=(
            ParityPair(
                name="contraction-trace",
                kind="class",
                ref_path="parity_contraction_ref.py",
                ref_symbol="Trace",
                flat_path="parity_contraction_flat_bad.py",
                flat_symbol="FlatTrace",
                allow_extra_ref=frozenset({"new_node"}),
                notes="test: new_node registered reference-only",
            ),
        )
    )
    report = _run(
        ["parity_contraction_ref.py", "parity_contraction_flat_bad.py"],
        [BackendParityRule(config)],
    )
    messages = [f.message for f in report.findings]
    assert len(messages) == 5, messages
    joined = " ".join(messages)
    assert "parameter drift on 'set_rake_op'" in joined
    assert "parameter drift on 'heal'" in joined
    assert "lacks public member 'removal_kind'" in joined
    assert "grew public member 'sweep'" in joined
    assert "'value' is a property" in joined
    # The registered reference-only allocator never reports.
    assert "new_node" not in joined


def test_r003_repo_contraction_pair_registered():
    """The real RakeTrace<->FlatContraction surfaces are pinned by the
    repo config — and currently in lockstep."""
    pair = {p.name: p for p in REPO_CONFIG.parity_pairs}["contraction-trace"]
    assert pair.ref_symbol == "RakeTrace"
    assert pair.flat_symbol == "FlatContraction"
    assert pair.allow_extra_ref == frozenset({"new_node"})
    assert pair.allow_extra_flat == frozenset({"replay", "removal"})
    repo_root = Path(__file__).resolve().parents[2]
    report = run_lint(
        repo_root,
        [pair.ref_path, pair.flat_path],
        [BackendParityRule(REPO_CONFIG)],
    )
    assert report.clean, [f.message for f in report.findings]


# ---------------------------------------------------------------------------
# R004 — journal / crash-point coverage
# ---------------------------------------------------------------------------

_JOURNAL_CONFIG = LintConfig(
    journal_specs=(
        JournalSpec(
            path="journal_bad.py",
            class_name="Tree",
            node_fields=frozenset({"left"}),
            columns=frozenset({"_left", "_right"}),
            allowlist={"__init__": "test: construction"},
        ),
    )
)


def test_r004_flags_unjournaled_mutations():
    report = _run(["journal_bad.py"], [JournalCoverageRule(_JOURNAL_CONFIG)])
    flagged = sorted(
        f.message.split(" ")[0] for f in report.findings
    )
    assert flagged == ["Tree.grow", "Tree.relink", "Tree.splice"], [
        str(f) for f in report.findings
    ]
    # `guarded` references self._journal and stays clean.
    assert all("guarded" not in f.message for f in report.findings)


def test_r004_module_scan_flags_resilience_style_mutations():
    """``class_name=None`` + ``any_receiver`` covers module-level repair
    helpers that rewrite *another object's* backend cells (the
    resilience scrub/restore sites)."""
    config = LintConfig(
        journal_specs=(
            JournalSpec(
                path="scrub_bad.py",
                class_name=None,
                node_fields=frozenset({"parent"}),
                columns=frozenset({"_n_leaves"}),
                any_receiver=True,
            ),
        )
    )
    report = _run(["scrub_bad.py"], [JournalCoverageRule(config)])
    flagged = sorted(f.message.split(" ")[0] for f in report.findings)
    assert flagged == [
        "scrub_bad.py.Repairer.bad_relink",
        "scrub_bad.py.bad_recompute",
    ], [str(f) for f in report.findings]
    # Both good_* variants reference the journal seam and stay clean.
    assert all("good_" not in f.message for f in report.findings)


def test_r004_module_scan_allowlist():
    config = LintConfig(
        journal_specs=(
            JournalSpec(
                path="scrub_bad.py",
                class_name=None,
                node_fields=frozenset({"parent"}),
                columns=frozenset({"_n_leaves"}),
                any_receiver=True,
                allowlist={
                    "bad_recompute": "test",
                    "Repairer.bad_relink": "test",
                },
            ),
        )
    )
    report = _run(["scrub_bad.py"], [JournalCoverageRule(config)])
    assert report.clean, [str(f) for f in report.findings]


def test_r004_allowlist_silences_with_justification():
    config = LintConfig(
        journal_specs=(
            JournalSpec(
                path="journal_bad.py",
                class_name="Tree",
                node_fields=frozenset({"left"}),
                columns=frozenset({"_left", "_right"}),
                allowlist={
                    "__init__": "test",
                    "splice": "test",
                    "grow": "test",
                    "relink": "test",
                },
            ),
        )
    )
    report = _run(["journal_bad.py"], [JournalCoverageRule(config)])
    assert report.clean


# ---------------------------------------------------------------------------
# R004 — snapshot-coverage mode
# ---------------------------------------------------------------------------

_SNAPSHOT_SPEC = SnapshotSpec(
    path="snapshot_bad.py",
    class_name="Tree",
    columns=frozenset({"_left"}),
    node_class=("snapshot_bad.py", "Node"),
    covered_fields=frozenset({"left", "right"}),
)


def test_r004_snapshot_mode_flags_uncovered_mutations():
    config = LintConfig(journal_specs=(), snapshot_specs=(_SNAPSHOT_SPEC,))
    report = _run(["snapshot_bad.py"], [JournalCoverageRule(config)])
    flagged = sorted(f.message.split(" ")[0] for f in report.findings)
    assert flagged == ["Tree.demote", "Tree.paint", "Tree.shade"], [
        str(f) for f in report.findings
    ]
    joined = " ".join(f.message for f in report.findings)
    assert "self._color" in joined
    assert "uncovered node field .color" in joined
    # `relink` mutates a covered column and stays clean.
    assert "relink" not in joined


def test_r004_snapshot_mode_allowlist():
    spec = SnapshotSpec(
        path=_SNAPSHOT_SPEC.path,
        class_name=_SNAPSHOT_SPEC.class_name,
        columns=_SNAPSHOT_SPEC.columns,
        node_class=_SNAPSHOT_SPEC.node_class,
        covered_fields=_SNAPSHOT_SPEC.covered_fields,
        allowlist={"paint": "test", "shade": "test", "demote": "test"},
    )
    config = LintConfig(journal_specs=(), snapshot_specs=(spec,))
    report = _run(["snapshot_bad.py"], [JournalCoverageRule(config)])
    assert report.clean, [str(f) for f in report.findings]


def test_r004_snapshot_registry_cross_check():
    """A crash-hooked class with neither a SnapshotSpec nor an exemption
    is flagged; the exemption registry silences it."""
    config = LintConfig(
        journal_specs=(),
        snapshot_specs=(_SNAPSHOT_SPEC,),
        snapshot_exempt=frozenset(),
        crash_points_path="crashes_registry.py",
    )
    report = _run(
        ["snapshot_bad.py", "crashes_registry.py"],
        [JournalCoverageRule(config)],
    )
    orphan = [f for f in report.findings if "Orphan" in f.message]
    assert len(orphan) == 1, [str(f) for f in report.findings]
    assert "no SnapshotSpec covers it" in orphan[0].message

    exempt = LintConfig(
        journal_specs=(),
        snapshot_specs=(_SNAPSHOT_SPEC,),
        snapshot_exempt=frozenset({"Orphan"}),
        crash_points_path="crashes_registry.py",
    )
    report = _run(
        ["snapshot_bad.py", "crashes_registry.py"],
        [JournalCoverageRule(exempt)],
    )
    assert all("Orphan" not in f.message for f in report.findings)


def test_r004_repo_snapshot_specs_mirror_coverage_constants():
    """The repo-level specs must stay literally the sets the snapshot
    layer restores — coverage and lint cannot drift apart."""
    from repro.snapshots.core import (
        FLAT_SNAPSHOT_COLUMNS,
        REFERENCE_SNAPSHOT_FIELDS,
    )

    specs = {s.class_name: s for s in REPO_CONFIG.snapshot_specs}
    assert specs["FlatRBSTS"].columns == FLAT_SNAPSHOT_COLUMNS
    assert specs["RBSTS"].covered_fields == REFERENCE_SNAPSHOT_FIELDS
    assert specs["RBSTS"].node_class == (
        "src/repro/splitting/node.py",
        "BSTNode",
    )
    assert "SnapshotIO" in REPO_CONFIG.snapshot_exempt


# ---------------------------------------------------------------------------
# R005 — __all__ hygiene
# ---------------------------------------------------------------------------


def test_r005_flags_missing_all():
    report = _run(["r005_bad.py"], [ExportHygieneRule(REPO_CONFIG)])
    assert _rules_of(report) == ["R005"]
    assert "no __all__" in report.findings[0].message


def test_r005_flags_stale_duplicate_and_unlisted():
    report = _run(["r005_bad_stale.py"], [ExportHygieneRule(REPO_CONFIG)])
    joined = " ".join(f.message for f in report.findings)
    assert "more than once" in joined
    assert "'ghost'" in joined
    assert "'unlisted'" in joined
    assert len(report.findings) == 3


def test_r005_exempt_registry():
    config = LintConfig(exports_exempt=frozenset({"r005_bad.py"}))
    report = _run(["r005_bad.py"], [ExportHygieneRule(config)])
    assert report.clean


# ---------------------------------------------------------------------------
# engine-level behaviours
# ---------------------------------------------------------------------------


def test_report_json_shape():
    report = _run(["r001_bad.py"], [BareRaiseRule(REPO_CONFIG)])
    doc = report.to_json()
    assert doc["schema"] == SCHEMA
    assert doc["files"] == 1
    assert doc["counts"] == {"R001": 2}
    assert doc["clean"] is False
    first = doc["findings"][0]
    assert set(first) == {"rule", "level", "path", "line", "col", "message"}


def test_missing_target_raises():
    with pytest.raises(FileNotFoundError):
        _run(["does_not_exist.py"], [BareRaiseRule(REPO_CONFIG)])
