"""barrier-protocol: the check-before-barrier / test-after-barrier idiom.

Join workers synchronize with barriers, so a worker that fails cannot just
return -- its teammates would deadlock (docs/ROBUSTNESS.md, "Failing under
a barrier protocol"). The discipline the kernels follow:

  * a worker that fails records the error in the shared JoinAbort
    (abort.Set(status)), STILL arrives at the barrier, and
  * every worker tests abort.IsSet() after the barrier before continuing.

Two textual checks approximate that protocol in src/join/ TUs:

  abort-test    for every `ArriveAndWait()` whose preceding barrier
                segment performs an abort Set (`abort.Set(` /
                `abort->Set(` / `abort_.Set(`), an `IsSet()` test must
                appear within a few lines after the barrier. A Set that
                is published at a barrier nobody re-checks is a join that
                continues past its own failure.

  failpoint-escape  every phase failpoint evaluation
                (`<Phase>AllocFailpoint()`) must have its failure
                propagated within the same statement window: a `return`
                (serial/driver paths) or an abort `Set(` (worker paths).
                An unconsumed failpoint evaluates the fault and then runs
                the phase anyway, which is exactly the bug fault-injection
                tests exist to catch. WaveBudgetFailpoint is exempt: it
                triggers a degradation (spill waves), not an error.

Both checks are heuristics over stripped text; they bound the idiom, not
the semantics -- the fault-matrix tests prove the behavior, this rule
keeps new barrier code from silently skipping the idiom.
"""

import re

from .cppmodel import line_of
from .engine import Finding, register

RULE = "barrier-protocol"

BARRIER_RE = re.compile(r"\bArriveAndWait\s*\(\s*\)")
# `abort` locals/parameters and `abort_` members alike.
ABORT_SET_RE = re.compile(r"\babort_?\s*(?:\.|->)\s*Set\s*\(")
IS_SET_RE = re.compile(r"\bIsSet\s*\(\s*\)")
PHASE_FAILPOINT_RE = re.compile(
    r"\b(Partition|Build|Probe|Materialize)AllocFailpoint\s*\(\s*\)")
# A prototype (`bool BuildAllocFailpoint();`) declares, it does not
# evaluate -- only call sites owe a consequence.
PROTOTYPE_RE = re.compile(
    r"^\s*(?:static\s+|inline\s+)*bool\s+"
    r"(?:Partition|Build|Probe|Materialize)AllocFailpoint\s*\(\s*\)\s*;")

# How many lines after a barrier the IsSet test may sit. The idiom is
# `barrier.ArriveAndWait(); if (abort.IsSet()) return;` possibly with a
# blank line or a `if (!abort.IsSet()) {` guard in between.
POST_BARRIER_WINDOW = 4
# How many lines after a failpoint evaluation its consequence must appear.
FAILPOINT_WINDOW = 3


@register(RULE, "file",
          "src/join/ barriers after an abort Set need an IsSet test; "
          "phase failpoints must propagate")
def check_barrier_protocol(sf, findings):
    if not sf.path.startswith("src/join/"):
        return
    text = sf.code
    lines = text.splitlines()

    # A barrier's "preceding segment" runs back to the previous barrier or
    # to the entry of the worker lambda, whichever is closer -- an abort
    # Set in a *different* dispatch body has nothing to do with this
    # barrier.
    lambda_entries = [lm.start()
                      for lm in re.finditer(r"WorkerContext", text)]
    barriers = list(BARRIER_RE.finditer(text))
    prev_end = 0
    for m in barriers:
        seg_start = prev_end
        for entry in lambda_entries:
            if seg_start < entry < m.start():
                seg_start = entry
        segment = text[seg_start:m.start()]
        prev_end = m.end()
        if not ABORT_SET_RE.search(segment):
            continue
        barrier_line = line_of(text, m.start())
        window = "\n".join(
            lines[barrier_line - 1: barrier_line - 1 + POST_BARRIER_WINDOW])
        if IS_SET_RE.search(window):
            continue
        findings.append(Finding(
            sf.path, barrier_line, RULE,
            "barrier follows an abort Set but no IsSet() test appears "
            f"within {POST_BARRIER_WINDOW} lines after it; workers must "
            "test-after-barrier or they run past a published failure",
            sf.line(barrier_line)))

    for m in PHASE_FAILPOINT_RE.finditer(text):
        fp_line = line_of(text, m.start())
        if PROTOTYPE_RE.match(lines[fp_line - 1]):
            continue
        window = "\n".join(lines[fp_line - 1: fp_line - 1 + FAILPOINT_WINDOW])
        if re.search(r"\breturn\b", window) or re.search(
                r"(?:\.|->)\s*Set\s*\(", window):
            continue
        findings.append(Finding(
            sf.path, fp_line, RULE,
            f"{m.group(1)}AllocFailpoint() result is not consumed within "
            f"{FAILPOINT_WINDOW} lines (no return, no abort Set); the "
            "injected fault would be evaluated and then ignored",
            sf.line(fp_line)))
