"""Rule registry, allowlist handling, runner, and fixture self-tests.

Rules come in two scopes:

  file  check(sf, findings) runs once per SourceFile under src/.
  repo  check(repo, findings) runs once per Repo -- for cross-file
        invariants (registry drift needs registries + all of src + docs).

Allowlists live at scripts/allowlists/<rule-id>.txt, one entry per line:

    <path>:<substring>

where <path> is the repo-relative file and <substring> must appear in the
offending source line ('#' starts a comment; empty substring matches any
line of the file). An entry only ever suppresses its own rule. Stale
entries -- entries matching no current finding -- are themselves reported
as findings (rule `allowlist-stale`): an allowlist that outlives its
justification silently re-opens the hole it documented.
"""

import pathlib
import time

from . import cppmodel


class Finding:
    def __init__(self, path, line, rule, message, source_line=""):
        self.path = path  # repo-relative posix string
        self.line = line
        self.rule = rule
        self.message = message
        self.source_line = source_line

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    def __init__(self, rule_id, scope, check, doc):
        assert scope in ("file", "repo"), scope
        self.id = rule_id
        self.scope = scope
        self.check = check
        self.doc = doc  # one-line summary for --list


_RULES = {}


def register(rule_id, scope, doc):
    """Decorator: register a rule function under `rule_id`."""

    def wrap(fn):
        assert rule_id not in _RULES, f"duplicate rule id {rule_id}"
        _RULES[rule_id] = Rule(rule_id, scope, fn, doc)
        return fn

    return wrap


def all_rules():
    # Importing the rule modules populates the registry; done here so that
    # `import engine` alone has no side effects.
    from . import (  # noqa: F401
        rules_barrier,
        rules_concurrency,
        rules_layers,
        rules_registry,
        rules_status,
    )

    return dict(_RULES)


# --------------------------------------------------------------- allowlists


def _parse_per_rule_lines(lines, origin, errors):
    entries = []
    for idx, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            errors.append(f"{origin}:{idx}: malformed entry (want "
                          f"path:substring): {line}")
            continue
        path, substring = line.split(":", 1)
        entries.append((path, substring, f"{origin}:{idx}"))
    return entries


def load_allowlists(repo_root, rule_ids):
    """Returns ({rule_id: [(path, substring, origin)]}, [error strings])."""
    errors = []
    per_rule = {rule_id: [] for rule_id in rule_ids}
    alldir = repo_root / "scripts" / "allowlists"
    if alldir.is_dir():
        for f in sorted(alldir.glob("*.txt")):
            rule_id = f.stem
            if rule_id not in per_rule:
                errors.append(f"{f}: allowlist for unknown rule "
                              f"'{rule_id}' (no such rule registered)")
                continue
            per_rule[rule_id].extend(
                _parse_per_rule_lines(f.read_text().splitlines(), str(f),
                                      errors))

    return per_rule, errors


def apply_allowlists(findings, per_rule):
    """Splits findings into (hard, suppressed) and appends a finding per
    stale allowlist entry."""
    used = set()
    hard, suppressed = [], []
    for finding in findings:
        entry = None
        for path, substring, origin in per_rule.get(finding.rule, []):
            if path != finding.path:
                continue
            if substring and substring not in finding.source_line:
                continue
            entry = origin
            break
        if entry is None:
            hard.append(finding)
        else:
            used.add(entry)
            suppressed.append(finding)

    for rule_id, entries in sorted(per_rule.items()):
        for path, substring, origin in entries:
            if origin in used:
                continue
            hard.append(
                Finding(
                    path,
                    0,
                    "allowlist-stale",
                    f"allowlist entry at {origin} (rule {rule_id}, "
                    f"substring {substring!r}) matches no current finding; "
                    "delete it",
                )
            )
    return hard, suppressed


# -------------------------------------------------------------------- runner


def run_rules(repo, rules):
    """Runs `rules` over `repo`. Returns (findings, {rule_id: seconds})."""
    findings = []
    timings = {}
    sources = None
    for rule in rules:
        start = time.monotonic()
        rule_findings = []
        if rule.scope == "file":
            if sources is None:
                sources = repo.sources()
            for sf in sources:
                rule.check(sf, rule_findings)
        else:
            rule.check(repo, rule_findings)
        for f in rule_findings:
            assert f.rule == rule.id, (
                f"rule {rule.id} emitted finding tagged {f.rule}")
        findings.extend(rule_findings)
        timings[rule.id] = time.monotonic() - start
    return findings, timings


# ----------------------------------------------------------------- self-test


def self_test(repo_root, rules, verbose=False):
    """Runs every rule against its fixtures under tests/lint/<rule-id>/.

    File-scope rules use bad*.cc / good*.cc fixture files (each carrying a
    `// lint-path:` directive for its virtual repo path); repo-scope rules
    use bad*/ and good*/ mini-repo directories. Every bad fixture must
    produce at least one finding OF THAT RULE, every good fixture none.
    Returns a list of failure strings (empty = pass).
    """
    failures = []
    fixtures_root = repo_root / "tests" / "lint"
    for rule in rules:
        rule_dir = fixtures_root / rule.id
        if not rule_dir.is_dir():
            failures.append(f"{rule.id}: no fixture directory {rule_dir}")
            continue
        ran_bad = ran_good = 0
        if rule.scope == "file":
            for fixture in sorted(rule_dir.glob("*.cc")) + sorted(
                rule_dir.glob("*.h")
            ):
                sf = cppmodel.SourceFile.load(fixture, repo_root)
                found = []
                rule.check(sf, found)
                found = [f for f in found if f.rule == rule.id]
                if fixture.name.startswith("bad"):
                    ran_bad += 1
                    if not found:
                        failures.append(
                            f"{rule.id}: {fixture.name} produced no "
                            f"{rule.id} finding (expected at least one)")
                    elif verbose:
                        for f in found:
                            print(f"  [self-test] {fixture.name}: {f}")
                else:
                    ran_good += 1
                    for f in found:
                        failures.append(
                            f"{rule.id}: {fixture.name} unexpectedly "
                            f"flagged: {f}")
        else:
            for fixture in sorted(p for p in rule_dir.iterdir()
                                  if p.is_dir()):
                repo = cppmodel.Repo(fixture)
                found = []
                rule.check(repo, found)
                found = [f for f in found if f.rule == rule.id]
                if fixture.name.startswith("bad"):
                    ran_bad += 1
                    if not found:
                        failures.append(
                            f"{rule.id}: fixture dir {fixture.name} "
                            f"produced no {rule.id} finding")
                    elif verbose:
                        for f in found:
                            print(f"  [self-test] {fixture.name}: {f}")
                else:
                    ran_good += 1
                    for f in found:
                        failures.append(
                            f"{rule.id}: fixture dir {fixture.name} "
                            f"unexpectedly flagged: {f}")
        if ran_bad == 0:
            failures.append(
                f"{rule.id}: no bad* fixture found in {rule_dir} -- every "
                "rule must prove it can fire")
    return failures
