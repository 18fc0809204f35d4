"""The R2xx rule family: path-sensitive checks over the effect graph.

* **R201** — no unsanctioned nondeterminism (module-level RNG, wall
  clock, set iteration) reachable from a public batch entry point.
  Sanctioned draws through the seeded ``rng`` seam are ``rng`` atoms and
  never findings here; this lifts rule R002 from call *sites* to call
  *paths* (the paper's RNG-parity claim needs the whole batch closure
  deterministic, not just the entry function).
* **R202** — every mutation effect reachable from a batch entry point
  is dominated by a snapshot/journal seam: a transaction bracket
  (``_txn_begin``, rule R004's journal references, a registered
  ``TXN_GUARDS`` seam) must sit on *every* call path from the entry to
  the store.  Findings are cross-checked against the snapshot coverage
  universe so the message says whether the escaping state is even
  restorable.
* **R204** — transaction discipline: (a) mutations inside a
  ``txn_begin``…commit bracket that target state outside the snapshot
  coverage universe (rollback would silently lose them); (b) ``except``
  handlers broad enough to swallow the ``ReproError`` taxonomy without
  re-raising.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..engine import Finding
from .graph import EffectGraph, SourcedAtom
from .model import (
    KIND_MUT_COL,
    KIND_MUT_NODE,
    KIND_MUT_OTHER,
    NONDET_KINDS,
    Atom,
    ModuleSummary,
)

__all__ = ["EffectPolicy", "run_checks"]


class EffectPolicy:
    """The slice of :class:`repro.lint.config.LintConfig` the R2xx
    checks consume (kept separate so fixture tests can build one without
    touching the repo registry)."""

    def __init__(
        self,
        entries: Sequence[Tuple[str, str, str, Tuple[str, ...]]],
        txn_guards: Mapping[str, str],
        allowlist: Mapping[str, Mapping[str, str]],
        columns: FrozenSet[str],
        node_fields: FrozenSet[str],
    ) -> None:
        self.entries = tuple(entries)
        self.txn_guards = dict(txn_guards)
        self.allowlist = {r: dict(m) for r, m in allowlist.items()}
        self.columns = columns
        self.node_fields = node_fields


def run_checks(
    graph: EffectGraph,
    modules: Mapping[str, ModuleSummary],
    policy: EffectPolicy,
) -> List[Finding]:
    findings: List[Finding] = []
    findings.extend(_check_r201(graph, policy))
    findings.extend(_check_r202(graph, policy))
    findings.extend(_check_r204(graph, policy))
    findings.extend(_check_allowlist_drift(graph, policy))
    kept: List[Finding] = []
    for f in findings:
        mod = modules.get(f.path)
        if mod is not None and mod.suppressed(f.rule, f.line):
            continue
        kept.append(f)
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept


def _allowed(
    policy: EffectPolicy, rule: str, owner_fid: str
) -> bool:
    return owner_fid in policy.allowlist.get(rule, {})


def _finding(
    rule: str, path: str, line: int, message: str
) -> Finding:
    return Finding(
        rule=rule, level="error", path=path, line=line, col=0, message=message
    )


def _owner_path(owner_fid: str) -> Tuple[str, str]:
    path, _, qual = owner_fid.partition("::")
    return path, qual


def _entry_fid(
    graph: EffectGraph,
    entry: Tuple[str, str, str, Tuple[str, ...]],
) -> Optional[str]:
    path, class_name, method, _rules = entry
    return graph.find_entry(path, class_name, method)


def _entry_label(entry: Tuple[str, str, str, Tuple[str, ...]]) -> str:
    path, class_name, method, _rules = entry
    return f"{class_name}.{method}" if class_name else method


def _check_allowlist_drift(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    """An allowlisted owner that names no function justifies nothing
    and would silently cover a future function of that name."""
    out: List[Finding] = []
    for rule, owners in sorted(policy.allowlist.items()):
        for owner in sorted(owners):
            if owner in graph.functions:
                continue
            path, qual = _owner_path(owner)
            out.append(
                _finding(
                    rule,
                    path,
                    0,
                    f"allowlisted owner {qual} not found (registry drift)",
                )
            )
    return out


# ---------------------------------------------------------------------------
# R201 — nondeterminism closure
# ---------------------------------------------------------------------------


def _check_r201(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    seen: Dict[Tuple[str, Atom], Tuple[str, List[str]]] = {}
    for entry in policy.entries:
        if "R201" not in entry[3]:
            continue
        fid = _entry_fid(graph, entry)
        if fid is None:
            out.append(
                _finding(
                    "R201",
                    entry[0],
                    0,
                    f"configured entry point {_entry_label(entry)} not "
                    "found (registry drift)",
                )
            )
            continue
        pred = graph.reachable([fid])
        for owner, atom in graph.atoms_in(pred, NONDET_KINDS):
            key = (owner, atom)
            if key in seen:
                continue
            seen[key] = (_entry_label(entry), graph.path_to(pred, owner))
    for (owner, atom), (entry_name, chain) in seen.items():
        if _allowed(policy, "R201", owner):
            continue
        path, qual = _owner_path(owner)
        what = {
            "global-rng": "module-level randomness",
            "time": "wall-clock read",
            "set-iter": "set iteration (hash-order nondeterminism)",
        }.get(atom.kind, atom.kind)
        out.append(
            _finding(
                "R201",
                path,
                atom.line,
                f"{what} ({atom.detail}) in {qual} is reachable from "
                f"batch entry point {entry_name} "
                f"(via {' -> '.join(chain)}); route determinism through "
                "the sanctioned rng seam or sort before iterating",
            )
        )
    return out


# ---------------------------------------------------------------------------
# R202 — mutation dominated by a snapshot/journal seam
# ---------------------------------------------------------------------------


def _check_r202(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    guard_fids = frozenset(policy.txn_guards)
    exposed = graph.exposed_mutations(guard_fids)
    seen: Set[Tuple[str, Atom]] = set()
    for entry in policy.entries:
        if "R202" not in entry[3]:
            continue
        fid = _entry_fid(graph, entry)
        if fid is None:
            out.append(
                _finding(
                    "R202",
                    entry[0],
                    0,
                    f"configured entry point {_entry_label(entry)} not "
                    "found (registry drift)",
                )
            )
            continue
        for owner, atom in sorted(exposed.get(fid, frozenset())):
            key = (owner, atom)
            if key in seen:
                continue
            seen.add(key)
            if _allowed(policy, "R202", owner):
                continue
            path, qual = _owner_path(owner)
            chain = graph.unguarded_path(fid, owner, guard_fids)
            if atom.kind == KIND_MUT_COL and atom.detail in policy.columns:
                coverage = "snapshot-covered, so a seam would restore it"
            elif (
                atom.kind == KIND_MUT_NODE
                and atom.detail in policy.node_fields
            ):
                coverage = "snapshot-covered, so a seam would restore it"
            else:
                coverage = (
                    "OUTSIDE the snapshot coverage universe — no seam "
                    "could restore it"
                )
            out.append(
                _finding(
                    "R202",
                    path,
                    atom.line,
                    f"mutation {atom.kind}:{atom.detail} in {qual} is "
                    f"reachable from batch entry point "
                    f"{_entry_label(entry)} with no snapshot/journal "
                    f"seam on the path {' -> '.join(chain)}; the state "
                    f"is {coverage}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# R204 — transaction discipline
# ---------------------------------------------------------------------------


def _check_r204(
    graph: EffectGraph, policy: EffectPolicy
) -> List[Finding]:
    out: List[Finding] = []
    # (a) rollback coverage of txn regions.
    for fid, fn in sorted(graph.functions.items()):
        if not fn.opens_txn:
            continue
        for owner, atom in graph.txn_region_atoms(fid):
            covered = (
                atom.kind == KIND_MUT_COL and atom.detail in policy.columns
            ) or (
                atom.kind == KIND_MUT_NODE
                and atom.detail in policy.node_fields
            )
            if covered or atom.kind not in (
                KIND_MUT_OTHER,
                KIND_MUT_COL,
                KIND_MUT_NODE,
            ):
                continue
            if _allowed(policy, "R204", owner):
                continue
            opath, oqual = _owner_path(owner)
            out.append(
                _finding(
                    "R204",
                    opath,
                    atom.line,
                    f"mutation {atom.kind}:{atom.detail} in {oqual} runs "
                    f"inside the transaction opened by {fn.qualname} "
                    f"({fn.path}:{fn.txn_line}) but targets state outside "
                    "the snapshot coverage universe — rollback would "
                    "silently lose it",
                )
            )
    # (b) taxonomy swallows.
    for fid, fn in sorted(graph.functions.items()):
        for handler in fn.handlers:
            if not handler.broad or handler.reraises:
                continue
            if _allowed(policy, "R204", fid):
                continue
            caught = ", ".join(handler.types) if handler.types else "bare"
            out.append(
                _finding(
                    "R204",
                    fn.path,
                    handler.line,
                    f"except handler ({caught}) in {fn.qualname} swallows "
                    "the ReproError taxonomy without re-raising; narrow "
                    "the catch or register a justified allowlist entry",
                )
            )
    return out
