"""Billing pass: kernel translation units keep the exact-billing contract
visible.

The scalability claims are stated in OpCounters units (edges touched,
floats moved, resident bytes), not wall clock -- see common/counters.h. A
translation unit under the kernel directories (src/graph, src/par,
src/ppr, src/sampling, src/storage, src/dist) that traverses adjacency but
never references the OpCounters API has silently opted out of that
accounting: its work is invisible to ScopedCounterDelta regions, pipeline
report rows, and the obs gauge exports.

Traversal is recognised by any of:
  * a range-for over `Neighbors(...)` (the CSR adjacency accessor),
  * a range-for over `nbrs`, the name the kernels give a bound
    `Neighbors(u)` span,
  * read-side indexing of a CSR neighbour array (`neighbors[`; the
    write-side build arrays are named `neighbors_` and do not match),
  * a for-loop bounded by `num_edges()`.

A call to `FanOutDraws` counts as a reference: it is the sampling layer's
destination fan-out (sampling/assembly.h), which bills every draw's
adjacency reads per shard, so a sampler whose loops all run inside it is
billed.

The finding is per-TU (first traversal loop reported): the fix is to bill
the loop, not to sprinkle counters on every line.
"""

import re

from . import registry

RULES = [
    registry.Rule(
        "billing/unbilled-kernel-loop",
        "this kernel TU traverses adjacency but never references "
        "OpCounters; unbilled edge work breaks the exact-billing contract "
        "(common/counters.h) that benchmarks and reports rely on",
        fixture="billing-unbilled-kernel-loop.cc.fixture",
        fixture_rel="src/graph/fixture.cc"),
]

KERNEL_PREFIXES = ("src/graph/", "src/par/", "src/ppr/", "src/sampling/",
                   "src/storage/", "src/dist/")

TRAVERSAL_PATTERNS = [
    ("range-for over Neighbors()",
     re.compile(r"for\s*\([^;(){}]*:\s*[^(){}]*\bNeighbors\s*\(")),
    ("range-for over a bound nbrs span",
     re.compile(r"for\s*\([^;(){}]*:\s*nbrs\s*\)")),
    ("neighbors[] read",
     re.compile(r"\bneighbors\s*\[")),
    ("loop bounded by num_edges()",
     re.compile(r"for\s*\([^{;]*;\s*[^;{]*\bnum_edges\s*\(\)")),
]

COUNTER_REF_RE = re.compile(
    r"\b(?:GlobalCounters|OpCounters|ScopedCounterDelta|"
    r"AggregateThreadCounters|SnapshotThreadCounters|FanOutDraws)\b")


def check_file(sf, kernel_tu=None):
    if kernel_tu is None:
        kernel_tu = sf.rel.startswith(KERNEL_PREFIXES) and \
            sf.rel.endswith((".cc", ".cpp"))
    if not kernel_tu:
        return []
    if COUNTER_REF_RE.search(sf.code):
        return []
    for what, pattern in TRAVERSAL_PATTERNS:
        m = pattern.search(sf.code)
        if m:
            return [registry.Diagnostic(
                sf.rel, sf.line_of(m.start()), RULES[0],
                m.group(0).split("\n")[0].strip(),
                f"{what}, and the TU never references OpCounters")]
    return []


def run(files):
    diags = []
    for sf in files:
        diags.extend(check_file(sf))
    return diags
