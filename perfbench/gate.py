"""Correctness gate: every result is checked against seeded ground truth.

Each generated app carries its :class:`GroundTruth`: the seeded issues
(each tagged with the mechanism, or *trait*, that planted it) and the
seeded traps (patterns a confused detector reports by mistake).
``reference.json`` records SAINTDroid's design per trait: which issue
traits it catches (direct, library, inherited, ...) and which it
misses by design (externally loaded code, anonymous callbacks), which
traps it falls for (anonymous guards) and which it sees through.

An app fails when its analysis fails, when SAINTDroid reports a key
that is neither a seeded issue nor a seeded trap key, when it falls
for a trap it is designed to see through, or when it misses an issue
of a trait it is designed to catch.  One exception is a ground-truth
defect, not a detector one: the generator sometimes seeds an issue on
an API that overrides a method an ancestor class already declared at
an earlier level, so the call resolves to the ancestor where the
override is missing and is safe.  Such *shadowed* issues are neither
required nor forbidden, and are counted apart.  Recall and precision
against all seeded issues are printed with every run.

On the seeds recorded in ``reference.json`` the gate is exact: the run
must reproduce the recorded findings digest (and, for the serial
workload, the exact modeled work and memory unit totals).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def findings_digest(run) -> str:
    return text_digest(json.dumps(run.findings_fingerprint(), sort_keys=True))


def _accuracy(tp: int, fp: int, fn: int) -> dict:
    return {
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "precision": tp / (tp + fp) if tp + fp else 1.0,
        "recall": tp / (tp + fn) if tp + fn else 1.0,
    }


def shadowed(key: tuple, apidb) -> bool:
    """True when the issue's API overrides a method some ancestor
    class declared at an earlier level (see the module docstring)."""
    if key[0] != "API" or len(key) < 4:
        return False
    class_name, name, descriptor = key[3]

    def introduced(entry) -> int | None:
        for method in entry.methods.values():
            if method.ref.name == name and method.ref.descriptor == descriptor and method.levels:
                return min(method.levels)
        return None

    entry = apidb.clazz(class_name)
    own = introduced(entry) if entry is not None else None
    if own is None:
        return False
    ancestor = entry.super_name
    while ancestor is not None:
        entry = apidb.clazz(ancestor)
        if entry is None:
            return False
        level = introduced(entry)
        if level is not None and level < own:
            return True
        ancestor = entry.super_name
    return False


@dataclass
class Verdict:
    apidb: object
    bad_apps: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    failed_ops: int = 0
    digest: str = ""
    shadowed: int = 0

    def check(self, result, truth, design: dict) -> str | None:
        """Check one app; ``None`` when it passes, else a reason."""
        if result.error is not None:
            return f"error: {result.error.kind.value}"
        report = result.reports.get("SAINTDroid")
        if report is None:
            return "no SAINTDroid report"
        if report.metrics is not None and report.metrics.failed:
            return "analysis failed"
        reported = frozenset(m.key for m in report.mismatches)
        seeded = set(truth.issue_keys)
        for trap in truth.traps:
            seeded.update(trap.fp_keys)
        if reported - seeded:
            return f"{len(reported - seeded)} report(s) outside the seeded keys"
        for issue in truth.issues:
            caught = design["issues"].get(issue.trait.value)
            if caught is None:
                return f"issue trait {issue.trait.value!r} outside the design table"
            if caught and issue.key not in reported:
                if not shadowed(issue.key, self.apidb):
                    return f"missed a {issue.trait.value} issue"
                self.shadowed += 1
        for trap in truth.traps:
            hit = design["traps"].get(trap.trait.value)
            if hit is None:
                return f"trap trait {trap.trait.value!r} outside the design table"
            if not hit and reported & set(trap.fp_keys):
                return f"fell for a {trap.trait.value} trap"
        return None

    def finish(self, pairs) -> "Verdict":
        self.accuracy = _score(pairs)
        self.accuracy["shadowed_misses"] = self.shadowed
        return self


def _score(pairs) -> dict:
    tp = fp = fn = 0
    for result, truth in pairs:
        report = result.reports.get("SAINTDroid")
        reported = frozenset(m.key for m in report.mismatches) if report else frozenset()
        issues = truth.issue_keys
        tp += len(reported & issues)
        fp += len(reported - issues)
        fn += len(issues - reported)
    return _accuracy(tp, fp, fn)


def check_run(run, apps, apidb, design: dict | None = None) -> Verdict:
    """Check one corpus run (results in corpus order) app by app."""
    design = design or load_reference()["design"]
    verdict = Verdict(apidb)
    pairs = []
    for result, app in zip(run.results, apps):
        reason = verdict.check(result, app.truth, design)
        if reason is not None:
            verdict.bad_apps.append((result.app, reason))
            verdict.failed_ops += 1
        pairs.append((result, app.truth))
    if len(run.results) != len(apps):
        verdict.bad_apps.append(("(corpus)", "result count differs from corpus"))
        verdict.failed_ops = len(apps)
    return verdict.finish(pairs)


def check_compare(result, apidb, design: dict | None = None) -> Verdict:
    """A campaign passes when its capability cross-check holds, no
    configuration failed an app, and SAINTDroid's findings pass the
    per-app check on every app."""
    design = design or load_reference()["design"]
    verdict = Verdict(apidb)
    capabilities_ok = bool(result.report["capabilities"]["ok"])
    for name, run in result.runs.items():
        for app in run.results:
            if not capabilities_ok or app.error is not None:
                verdict.failed_ops += 1
                verdict.bad_apps.append((f"{name}/{app.app}", "failed or capability mismatch"))
    pairs = [(app, app.truth) for app in result.runs["SAINTDroid"].results]
    for app, truth in pairs:
        reason = verdict.check(app, truth, design)
        if reason is not None:
            verdict.failed_ops += 1
            verdict.bad_apps.append((f"SAINTDroid/{app.app}", reason))
    return verdict.finish(pairs)


def check_serve(records: list[dict], apps, apidb, design: dict | None = None) -> Verdict:
    """Every submission must settle ``completed``; analysed jobs must
    pass the per-app check; a resubmitted package must be answered at
    admission with the findings its first analysis produced."""
    design = design or load_reference()["design"]
    verdict = Verdict(apidb)
    first: dict[int, dict] = {}
    pairs = []
    for record in records:
        doc, result = record["doc"], record.get("result")
        if doc is None or doc["state"] != "completed" or result is None:
            verdict.failed_ops += 1
            verdict.bad_apps.append((record["version"], "not completed"))
            continue
        findings = result.findings_fingerprint()
        if record["resubmit"]:
            original = first.get(record["version"])
            if not doc.get("dedup") or (original is not None and original != findings):
                verdict.failed_ops += 1
                verdict.bad_apps.append((record["version"], "resubmission not answered from dedup"))
            continue
        first[record["version"]] = findings
        truth = apps[record["base"]].truth
        reason = verdict.check(result, truth, design)
        if reason is not None:
            verdict.failed_ops += 1
            verdict.bad_apps.append((record["version"], reason))
        pairs.append((result, truth))
    verdict.digest = text_digest(json.dumps([first[k] for k in sorted(first)], sort_keys=True))
    return verdict.finish(pairs)
