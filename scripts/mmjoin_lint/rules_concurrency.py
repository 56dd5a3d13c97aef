"""Concurrency rules: atomic-order, raw-thread, join-loop-alloc,
nondeterminism, padded-assert, deque-guard, exec-guard, budget-guard and
bare-escape. Rule-by-rule rationale lives in docs/STATIC_ANALYSIS.md.
"""

import re

from .cppmodel import line_of, loop_body_spans, matching_paren_end
from .engine import Finding, register

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_strong|compare_exchange_weak|wait|"
    r"test_and_set|clear)\s*\("
)
ATOMIC_DECL_RE = re.compile(
    r"std\s*::\s*atomic\s*<[^<>]*(?:<[^<>]*>)?[^<>]*>\s+(\w+)")
RAW_THREAD_RE = re.compile(r"std\s*::\s*thread\b")
HW_CONCURRENCY_RE = re.compile(r"std\s*::\s*thread\s*::\s*hardware_concurrency")
ALLOC_RE = re.compile(r"\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(")
RAND_RE = re.compile(r"(?:std\s*::\s*)?\b(rand|srand|random|srandom|drand48)\s*\(")
SYSTEM_CLOCK_RE = re.compile(r"std\s*::\s*chrono\s*::\s*system_clock")
PADDED_STRUCT_RE = re.compile(r"struct\s+alignas\(kCacheLineSize\)\s+(\w+)")
DEQUE_DECL_RE = re.compile(r"std\s*::\s*deque\s*<")
ESCAPE_RE = re.compile(r"MMJOIN_NO_THREAD_SAFETY_ANALYSIS")
EXEC_CONTAINER_RE = re.compile(
    r"std\s*::\s*(?:vector|deque|unordered_map|unordered_set|map|set|"
    r"array)\s*<"
)
# Member declarations follow the trailing-underscore convention; locals,
# parameters, and return types never match.
EXEC_MEMBER_RE = re.compile(r"[>*&]\s*(\w+_)\s*(?:;|=|\{|MMJOIN_GUARDED_BY)")
OWNERSHIP_WORDS = ("single-owner", "per-thread", "read-only")
# Trailing-underscore integral members; `std::atomic<uint64_t> x_` cannot
# match because '>' (not whitespace) follows the integral type name.
BUDGET_MEMBER_RE = re.compile(
    r"\b(?:uint64_t|uint32_t|int64_t|int32_t|std\s*::\s*size_t|size_t)"
    r"\s+(\w+_)\s*(?:;|=|\{)"
)


@register("atomic-order", "file",
          "std::atomic accesses must name an explicit std::memory_order")
def check_atomic_order(sf, findings):
    text = sf.code
    # Explicit-call form: .load(...), .fetch_add(...), ...
    for m in ATOMIC_CALL_RE.finditer(text):
        open_paren = text.index("(", m.end() - 1)
        end = matching_paren_end(text, open_paren)
        call = text[m.start(): end + 1]
        # Heuristic gate: we cannot type-check, so only *require* the order
        # on the unambiguous RMW/load/store names.
        method = m.group(1)
        if method in ("wait", "test_and_set", "clear"):
            continue  # too many non-atomic APIs share these names
        if "memory_order" not in call:
            lineno = line_of(text, m.start())
            findings.append(Finding(
                sf.path, lineno, "atomic-order",
                f"atomic .{method}() without an explicit std::memory_order",
                sf.line(lineno)))
    # Operator sugar on variables declared std::atomic in this file:
    # ++x / x++ / x += / x -= / x |= / x &= / x ^= / x = value.
    # Only BARE identifier uses are checked (not `obj.name` / `p->name`):
    # without types we cannot tell an atomic member from a plain struct
    # field that happens to share its name.
    names = set(ATOMIC_DECL_RE.findall(text))
    for name in names:
        sugar = re.compile(
            r"(?:\+\+|--)\s*" + re.escape(name) + r"\b(?!\s*[.\[])"
            r"|(?<![\w.>])" + re.escape(name) +
            r"\s*(?:\+\+|--|\+=|-=|\|=|&=|\^=|=(?![=]))"
        )
        for m in sugar.finditer(text):
            # Skip declarations/initializations: 'std::atomic<T> name = ...',
            # 'uint64_t name = 0;' (same-named plain local), and references/
            # pointers ('auto& name = ...').
            prefix = text[max(0, m.start() - 120): m.start()]
            last_line = prefix.rsplit("\n", 1)[-1].rstrip()
            if ("atomic" in last_line or
                    last_line.endswith((">", "&", "*")) or
                    (last_line and last_line[-1].isalnum() or
                     last_line.endswith("_"))):
                continue
            lineno = line_of(text, m.start())
            findings.append(Finding(
                sf.path, lineno, "atomic-order",
                f"operator on std::atomic '{name}' uses implicit seq_cst; "
                "use .load/.store/.fetch_* with an explicit order",
                sf.line(lineno)))


@register("raw-thread", "file",
          "no raw std::thread outside src/thread/ (use thread::Executor)")
def check_raw_thread(sf, findings):
    if sf.path.startswith("src/thread/"):
        return
    text = sf.code
    for m in RAW_THREAD_RE.finditer(text):
        if HW_CONCURRENCY_RE.match(text, m.start()):
            continue
        lineno = line_of(text, m.start())
        findings.append(Finding(
            sf.path, lineno, "raw-thread",
            "raw std::thread outside src/thread/; use thread::Executor",
            sf.line(lineno)))


@register("join-loop-alloc", "file",
          "no heap allocation inside loop bodies in src/join/")
def check_join_loop_alloc(sf, findings):
    if not sf.path.startswith("src/join/"):
        return
    text = sf.code
    spans = loop_body_spans(text)
    if not spans:
        return
    for m in ALLOC_RE.finditer(text):
        pos = m.start()
        if not any(start <= pos <= end for start, end in spans):
            continue
        lineno = line_of(text, pos)
        findings.append(Finding(
            sf.path, lineno, "join-loop-alloc",
            "heap allocation inside a join-phase loop; hoist it and "
            "allocate through mem/ or numa/ before the timed region",
            sf.line(lineno)))


@register("nondeterminism", "file",
          "no libc rand / system_clock in src/ (util/rng.h, util/timer.h)")
def check_nondeterminism(sf, findings):
    if sf.path.startswith("src/util/rng"):
        return
    text = sf.code
    for m in RAND_RE.finditer(text):
        lineno = line_of(text, m.start())
        findings.append(Finding(
            sf.path, lineno, "nondeterminism",
            f"libc '{m.group(1)}' in src/; use util/rng.h (seeded, "
            "reproducible)",
            sf.line(lineno)))
    for m in SYSTEM_CLOCK_RE.finditer(text):
        lineno = line_of(text, m.start())
        findings.append(Finding(
            sf.path, lineno, "nondeterminism",
            "std::chrono::system_clock in src/; timed regions use the "
            "monotonic NowNanos() from util/timer.h",
            sf.line(lineno)))


@register("padded-assert", "file",
          "alignas(kCacheLineSize) structs need a static_assert in-file")
def check_padded_assert(sf, findings):
    text = sf.code
    for m in PADDED_STRUCT_RE.finditer(text):
        name = m.group(1)
        assert_re = re.compile(
            r"static_assert\s*\([^;]*\b" + re.escape(name) + r"\b",
            re.DOTALL)
        if not assert_re.search(text):
            lineno = line_of(text, m.start())
            findings.append(Finding(
                sf.path, lineno, "padded-assert",
                f"struct '{name}' is alignas(kCacheLineSize) but has no "
                "static_assert checking its size/alignment",
                sf.line(lineno)))


@register("deque-guard", "file",
          "std::deque declarations must carry MMJOIN_GUARDED_BY")
def check_deque_guard(sf, findings):
    if not sf.path.startswith("src/"):
        return
    text = sf.code
    for m in DEQUE_DECL_RE.finditer(text):
        # The declaration statement runs to the next ';'; the annotation
        # must sit inside it ('std::deque<T> q MMJOIN_GUARDED_BY(mu);').
        end = text.find(";", m.start())
        stmt = text[m.start(): end if end != -1 else len(text)]
        if "MMJOIN_GUARDED_BY" in stmt:
            continue
        lineno = line_of(text, m.start())
        findings.append(Finding(
            sf.path, lineno, "deque-guard",
            "std::deque without MMJOIN_GUARDED_BY; annotate which mutex "
            "protects it (work-stealing shards are the template)",
            sf.line(lineno)))


@register("exec-guard", "file",
          "src/exec/ container members need a guard or ownership comment")
def check_exec_guard(sf, findings):
    if not sf.path.startswith("src/exec/"):
        return
    text = sf.code
    for m in EXEC_CONTAINER_RE.finditer(text):
        lineno = line_of(text, m.start())
        line_end = text.find("\n", m.start())
        decl = text[m.start(): line_end if line_end != -1 else len(text)]
        member = EXEC_MEMBER_RE.search(decl)
        if not member:
            continue  # local, parameter, or return type -- not member state
        if "MMJOIN_GUARDED_BY" in decl:
            continue
        window = " ".join(
            sf.line(l) for l in (lineno - 2, lineno - 1, lineno))
        if any(word in window for word in OWNERSHIP_WORDS):
            continue
        findings.append(Finding(
            sf.path, lineno, "exec-guard",
            f"container member '{member.group(1)}' in src/exec/ without "
            "MMJOIN_GUARDED_BY or an ownership comment "
            "(single-owner / per-thread / read-only)",
            sf.line(lineno)))


@register("budget-guard", "file",
          "src/mem/budget* integral members need atomic/const/guard/comment")
def check_budget_guard(sf, findings):
    if not sf.path.startswith("src/mem/budget"):
        return
    text = sf.code
    for m in BUDGET_MEMBER_RE.finditer(text):
        lineno = line_of(text, m.start())
        line_start = text.rfind("\n", 0, m.start()) + 1
        line_end = text.find("\n", m.start())
        decl = text[line_start: line_end if line_end != -1 else len(text)]
        if "const" in decl or "MMJOIN_GUARDED_BY" in decl:
            continue
        window = " ".join(
            sf.line(l) for l in (lineno - 2, lineno - 1, lineno))
        if any(word in window for word in OWNERSHIP_WORDS):
            continue
        findings.append(Finding(
            sf.path, lineno, "budget-guard",
            f"integral member '{m.group(1)}' in src/mem/budget* is "
            "neither std::atomic, const, MMJOIN_GUARDED_BY-annotated, "
            "nor ownership-commented (single-owner / per-thread / "
            "read-only); shared budget counters race",
            sf.line(lineno)))


@register("bare-escape", "file",
          "MMJOIN_NO_THREAD_SAFETY_ANALYSIS needs an explanatory comment")
def check_bare_escape(sf, findings):
    # Runs over the RAW text (comments matter here).
    if sf.path.endswith("util/annotations.h"):
        return  # the definition site
    for m in ESCAPE_RE.finditer(sf.raw):
        lineno = line_of(sf.raw, m.start())
        this_line = sf.line(lineno)
        prev_line = sf.line(lineno - 1)
        if "//" in this_line.split("MMJOIN_NO_THREAD_SAFETY_ANALYSIS")[-1] \
                or prev_line.startswith("//"):
            continue
        findings.append(Finding(
            sf.path, lineno, "bare-escape",
            "MMJOIN_NO_THREAD_SAFETY_ANALYSIS without an explanatory "
            "comment on the same or preceding line",
            this_line))
