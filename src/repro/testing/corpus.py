"""The replayable regression corpus under ``tests/corpus/``.

Every fuzz scenario (:mod:`repro.testing.scenarios`) writes its
reproducers here in one schema, :data:`CORPUS_SCHEMA`; the replay test
(``tests/testing/test_corpus_replay.py``) and ``python -m
repro.testing.fuzz --replay`` both re-run an entry through
:func:`repro.testing.scenarios.replay_entry`, so a once-found bug can
never silently return.  An entry is one JSON object::

    {
      "schema":   "repro-corpus/1",
      "scenario": "list" | "contraction" | "crash" | "faults"
                  | "snapshots" | "serve",
      "note":     why the entry exists (or the failure that wrote it),
      "config":   the scenario's run knobs (backend, crash_seed,
                  snapshot seeds, fault plan + policy, chaos config),
      "expect":   what the replay must reproduce beyond passing its
                  audits (outcome class, fired faults, chaos digest),
      "program":  the OpSequence (absent for serve entries)
    }

Workflow (see TESTING.md):

1. ``python -m repro.testing.fuzz --scenario ...`` finds a violation
   and drops ``fail-<scenario>-<digest>.json`` into the corpus;
2. fix the bug;
3. commit the fix *and* the corpus file — the replay test now pins it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Mapping, Optional

from ..errors import InvalidParameterError
from .ops import OpSequence

__all__ = [
    "CORPUS_SCHEMA",
    "corpus_paths",
    "default_corpus_dir",
    "load_entry",
    "make_entry",
    "save_entry",
]

CORPUS_SCHEMA = "repro-corpus/1"


def default_corpus_dir() -> str:
    """``tests/corpus`` relative to the repository root when it exists,
    else relative to the current directory (CLI convenience)."""
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(os.path.join(here, "..", "..", ".."))
    candidate = os.path.join(root, "tests", "corpus")
    if os.path.isdir(os.path.join(root, "tests")):
        return candidate
    return os.path.join(os.getcwd(), "tests", "corpus")


def make_entry(
    scenario: str,
    config: Mapping[str, Any],
    *,
    program: Optional[OpSequence] = None,
    expect: Optional[Mapping[str, Any]] = None,
    note: str = "",
) -> Dict[str, Any]:
    """One corpus entry (plain JSON data)."""
    entry: Dict[str, Any] = {
        "schema": CORPUS_SCHEMA,
        "scenario": scenario,
        "note": note,
        "config": dict(config),
        "expect": dict(expect or {}),
    }
    if program is not None:
        entry["program"] = program.to_json()
    return entry


def save_entry(
    entry: Mapping[str, Any],
    directory: Optional[str] = None,
    *,
    prefix: str = "fail",
) -> str:
    """Write ``entry`` into the corpus; returns the file path."""
    directory = directory or default_corpus_dir()
    os.makedirs(directory, exist_ok=True)
    body = json.dumps(
        [entry["scenario"], entry["config"], entry.get("program")],
        sort_keys=True,
    )
    digest = hashlib.sha256(body.encode()).hexdigest()[:10]
    name = f"{prefix}-{entry['scenario']}-{digest}.json"
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(entry, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_entry(path: str) -> Dict[str, Any]:
    """Read one entry; anything that is not a :data:`CORPUS_SCHEMA`
    object raises :class:`~repro.errors.InvalidParameterError`."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidParameterError(
            f"{path}: unreadable corpus entry ({exc})"
        ) from exc
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != CORPUS_SCHEMA:
        raise InvalidParameterError(
            f"{path}: unknown corpus schema {schema!r} "
            f"(expected {CORPUS_SCHEMA!r})"
        )
    return data


def corpus_paths(directory: Optional[str] = None) -> List[str]:
    """Every ``*.json`` entry in the corpus directory, sorted."""
    directory = directory or default_corpus_dir()
    if not os.path.isdir(directory):
        return []
    return [
        os.path.join(directory, name)
        for name in sorted(os.listdir(directory))
        if name.endswith(".json")
    ]
