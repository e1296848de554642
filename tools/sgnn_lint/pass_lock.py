"""Guarded-by coverage pass: mutex-holding classes annotate their state.

Any class or struct that declares a `Mutex`/`SharedMutex` member is a
concurrency boundary: every mutable data member must either carry
`SGNN_GUARDED_BY`/`SGNN_PT_GUARDED_BY` (making unlocked access a compile
error under Clang's `-Werror=thread-safety`) or be exempt by construction.

Exempt by construction, with no annotation needed:
  * `const`/`constexpr`/`static` members (immutable or not per-instance),
  * `std::atomic<...>` members (internally synchronized),
  * `std::condition_variable(_any)` (self-synchronizing),
  * the `Mutex`/`SharedMutex` members themselves,
  * members of the library's self-synchronized types (SELF_SYNCHRONIZED
    below): their own locks guard their state.

Everything else needs the annotation or an inline suppression whose
justification says why unguarded access is sound (the usual reason:
written once during single-threaded initialisation, before sharing).

Heuristics, documented so their blind spots are known: members are
recognised by Google-style trailing-underscore names or plain identifiers
in annotation-free structs; function-typed members whose declarator needs
parentheses (e.g. `std::function<void()>`) are skipped.
"""

import re

from . import registry
from . import scanner

RULES = [
    registry.Rule(
        "lock/unannotated-field",
        "this class declares a Mutex/SharedMutex, so every mutable field "
        "must be SGNN_GUARDED_BY/SGNN_PT_GUARDED_BY one of its locks (or "
        "carry a suppression saying why unguarded access is sound)",
        fixture="lock-unannotated-field.cc.fixture"),
]

# Types whose instances synchronize themselves; fields of these types need
# no guard. Keep in sync with the DESIGN.md rule catalog.
SELF_SYNCHRONIZED = (
    "ThreadPool",
    "Tracer",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "TickClock",
    "CircuitBreaker",
    "FaultInjector",
    "ServeMetrics",
)

CLASS_HEAD_RE = re.compile(
    r"\b(class|struct)\s+(?:SGNN_\w+(?:\s*\([^)]*\))?\s+)*"
    r"(?:alignas\s*\([^)]*\)\s*)?"
    r"(\w+)(?:\s+final)?\s*(?::[^{;]*)?\{")

MUTEX_DECL_RE = re.compile(
    r"(?:^|\s)(?:mutable\s+)?(?:\w+::)*(?:Mutex|SharedMutex)\s+\w+\s*$")

FIELD_RE = re.compile(
    r"^(?P<type>.+?[\s>&*])(?P<name>[A-Za-z_]\w*)"
    r"\s*(?:\[\s*\w*\s*\])?\s*$", re.DOTALL)

STMT_SKIP_RE = re.compile(
    r"^(?:using|typedef|friend|static_assert|template|enum|class|struct|"
    r"union|explicit|operator|public|private|protected)\b")

NON_FIELD_NAMES = {
    "const", "default", "delete", "override", "final", "noexcept",
    "delete[]", "operator", "0",
}


def _strip_initializer(stmt):
    """Cuts the statement at the first top-level `=` (a default member
    initialiser). An `=` inside parentheses is a default *argument* of a
    function declaration and must not truncate the declarator."""
    depth = 0
    for i, c in enumerate(stmt):
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth = max(0, depth - 1)
        elif c == "=" and depth == 0:
            return stmt[:i]
    return stmt


def _statements(code, begin, end):
    """Depth-0 statements of a class body as (offset, text) pairs. Nested
    braces (function bodies, nested classes, brace initialisers) are
    skipped, so a statement is what precedes each member-level `;`."""
    stmts = []
    depth_brace = 0
    depth_paren = 0
    start = begin
    i = begin
    buf = []
    while i < end:
        c = code[i]
        if c == "{":
            skip_to = scanner.match_brace(code, i)
            if skip_to < 0 or skip_to > end:
                break
            i = skip_to
            continue
        if c == "(":
            depth_paren += 1
        elif c == ")":
            depth_paren = max(0, depth_paren - 1)
        elif c == ";" and depth_paren == 0 and depth_brace == 0:
            stmts.append((start, "".join(buf)))
            buf = []
            i += 1
            start = i
            continue
        buf.append(c)
        i += 1
    return stmts


def _class_bodies(code, begin=0, end=None):
    """Yields (name, body_begin, body_end) for every class/struct with a
    braced body in code[begin:end], recursively."""
    if end is None:
        end = len(code)
    pos = begin
    while pos < end:
        m = CLASS_HEAD_RE.search(code, pos, end)
        if not m:
            return
        brace = m.end() - 1
        close = scanner.match_brace(code, brace)
        if close < 0 or close > end:
            pos = m.end()
            continue
        yield (m.group(2), brace + 1, close - 1)
        yield from _class_bodies(code, brace + 1, close - 1)
        pos = close


def _strip_label(stmt):
    return re.sub(r"^\s*(?:public|private|protected)\s*:(?!:)", "", stmt)


def _field_of(stmt):
    """Parses a member statement into (type_text, name, annotated) or None
    when it is not a data-member declaration."""
    stmt = _strip_label(stmt).strip()
    if not stmt or STMT_SKIP_RE.match(stmt):
        return None
    annotated = bool(
        re.search(r"SGNN_(?:PT_)?GUARDED_BY\s*\(", stmt))
    # Annotations and attributes out of the way, initialiser off the tail.
    pruned = re.sub(r"SGNN_\w+\s*(?:\([^()]*\))?", " ", stmt)
    pruned = re.sub(r"\[\[[^\]]*\]\]", " ", pruned)
    pruned = _strip_initializer(pruned).strip()
    if not pruned or pruned.endswith((")", ">", "&", "*", ",", ":")):
        # Function declaration, macro residue, or declarator we don't model.
        return None
    m = FIELD_RE.match(pruned)
    if not m:
        return None
    name = m.group("name")
    if name in NON_FIELD_NAMES:
        return None
    type_text = m.group("type").strip()
    if not type_text:
        return None
    return (type_text, name, annotated)


def _exempt(type_text, stmt):
    if re.match(r"^\s*(?:static|constexpr)\b", stmt):
        return True
    if re.search(r"\bconst\b", type_text):
        return True
    if re.search(r"\batomic\s*<", type_text):
        return True
    if re.search(r"\bcondition_variable(?:_any)?\b", type_text):
        return True
    if re.search(r"\b(?:Mutex|SharedMutex)\b", type_text):
        return True
    for t in SELF_SYNCHRONIZED:
        if re.search(rf"\b{t}\b", type_text):
            return True
    return False


def check_file(sf):
    rule = RULES[0]
    diags = []
    code = sf.code
    for cls_name, begin, end in _class_bodies(code):
        stmts = _statements(code, begin, end)
        has_mutex = any(
            MUTEX_DECL_RE.search(
                re.sub(r"SGNN_\w+\s*(?:\([^()]*\))?", " ",
                       _strip_label(text)).rstrip())
            for _, text in stmts)
        if not has_mutex:
            continue
        for offset, text in stmts:
            parsed = _field_of(text)
            if parsed is None:
                continue
            type_text, name, annotated = parsed
            if annotated or _exempt(type_text, _strip_label(text).strip()):
                continue
            # Point at the declaration's last line (where the name sits).
            line = sf.line_of(offset + len(text) - len(text.lstrip()))
            last = sf.line_of(offset + len(text) - 1)
            for cand in range(line, last + 1):
                if re.search(rf"\b{re.escape(name)}\b",
                             sf.code_line(cand) or ""):
                    line = cand
                    break
            diags.append(registry.Diagnostic(
                sf.rel, line, rule, f"{cls_name}::{name}",
                f"mutable field '{name}' in mutex-holding class "
                f"'{cls_name}' lacks SGNN_GUARDED_BY"))
    return diags


def run(files):
    diags = []
    for sf in files:
        diags.extend(check_file(sf))
    return diags
