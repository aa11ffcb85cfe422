#!/usr/bin/env python3
"""dgt_lint: the repo's determinism linter.

Four rules, each targeting a bug class this codebase has actually hit or
is structurally exposed to (see docs/STATIC_ANALYSIS.md):

  hash-order   A range-for over an unordered_map/unordered_set whose body
               accumulates floating-point values or emits output. Hash
               iteration order is a function of the container's insertion
               *history*, so such loops make results depend on how state
               was built rather than on what it contains — the exact bug
               fixed in WeightTable::TotalExcessWeight (PR 5) and again in
               five more sites by the PR that introduced this linter.
               Writes keyed by a loop binding (out[k] = ..., out[k] += ...
               where k is bound by the loop) are order-independent and
               exempt.

  raw-time     rand()/srand(), std::random_device, time(), or any
               ::now() clock read outside common/rng.h, bench_util, and
               tools/. Simulation and aggregation results must be pure
               functions of (spec, seed); wall-clock reads belong in
               observability and bench timing only.

  raw-thread   std::thread / std::jthread outside src/common/. Thread
               ownership is concentrated in the annotated common/ layer
               (ThreadPool) plus audited owners that carry an explicit
               suppression (ReputationService, RpcServer).

  float-eq     == / != where an operand is a non-zero floating-point
               literal, or both operands are same-file float-declared
               identifiers. Exact float equality is almost always a
               stale-tolerance bug. Comparisons against exactly 0.0 are
               exempt (the push-sum "no mass" sentinel is an exact-zero
               protocol, not an approximation), as are test files.
               Applies to Python files as well.

A finding is suppressed only by an audited annotation naming the rule AND
a reason, on the flagged line or on a comment-only line directly above:

    // dgt-lint: raw-thread-ok(RpcServer owns the accept thread)

(# instead of // in Python.) An empty reason does not suppress.

Usage: tools/dgt_lint.py PATH [PATH...]   (directories are walked)
Exit: 0 = clean, 1 = findings, 2 = bad invocation.
"""

from __future__ import annotations

import argparse
import os
import re
import sys

RULES = ("hash-order", "raw-time", "raw-thread", "float-eq")

CPP_EXTS = {".h", ".hpp", ".cc", ".cpp", ".cxx"}
PY_EXTS = {".py"}

# Accessors in this repo that return unordered containers by reference;
# range-fors over their results are hash-order loops even though the
# declaration lives in another file.
KNOWN_HASH_ACCESSORS = {"entries"}

SUPPRESS_RE = re.compile(r"(?://|#)\s*dgt-lint:\s*([a-z-]+)-ok\(([^)]*)\)")

FLOAT_LIT = r"(?:\d+\.\d*|\.\d+|\d+(?=[eE]))(?:[eE][+-]?\d+)?[fF]?"
FLOAT_LIT_RE = re.compile(FLOAT_LIT)
FLOAT_CMP_RE = re.compile(
    r"(?:(%s)\s*(?:==|!=)(?!=))|(?:(?:==|!=)(?<!<=)(?<!>=)\s*(%s))"
    % (FLOAT_LIT, FLOAT_LIT)
)
NAME_CMP_RE = re.compile(r"\b(\w+)\s*(==|!=)(?!=)\s*(\w+)\b")
RAW_TIME_RE = re.compile(
    r"std::random_device|(?<![\w:.])s?rand\s*\(|(?<![\w:.])time\s*\(|::now\s*\("
)
RAW_THREAD_RE = re.compile(r"std::j?thread\b")
RANGE_FOR_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?auto\s*&{0,2}\s*(\[[^\]]*\]|\w+)\s*:\s*(.*)"
)
ACCUM_RE = re.compile(r"([\w.\[\]()*>-]+?)\s*(\+=|-=|\*=|/=)(?!=)")
OUTPUT_RE = re.compile(
    r"std::cout|std::cerr|std::clog|(?<!\w)f?printf\s*\(|"
    r"\b(?:out|os|oss|ss|stream)\s*<<"
)
CPP_KEYWORDS = {
    "auto", "bool", "break", "case", "catch", "char", "class", "const",
    "constexpr", "continue", "default", "delete", "do", "double", "else",
    "enum", "explicit", "extern", "false", "float", "for", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "nullptr", "operator",
    "private", "public", "return", "short", "signed", "sizeof", "static",
    "struct", "switch", "template", "this", "throw", "true", "try",
    "typedef", "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "while", "std", "size_t", "uint32_t", "uint64_t",
    "int32_t", "int64_t", "include", "define", "ifndef", "endif",
}


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_cpp_noise(lines):
    """Comment- and string-stripped copy of `lines` (1-based indexable).

    Suppression comments are handled separately from the raw text; this
    strips everything so rule regexes never fire inside comments/strings.
    """
    out = []
    in_block = False
    for raw in lines:
        buf = []
        i = 0
        n = len(raw)
        while i < n:
            if in_block:
                end = raw.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = raw[i]
            two = raw[i:i + 2]
            if two == "//":
                break
            if two == "/*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                buf.append(" ")
                i += 1
                while i < n:
                    if raw[i] == "\\":
                        i += 2
                        continue
                    if raw[i] == quote:
                        i += 1
                        break
                    i += 1
                continue
            buf.append(ch)
            i += 1
        out.append("".join(buf))
    return out


def collect_suppressions(raw_lines):
    """Maps line number (1-based) -> {rule: reason} it is suppressed for.

    A suppression on a line covers that line; a comment-only suppression
    line covers the next line as well.
    """
    supp = {}
    for idx, raw in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in RULES or not reason:
            continue  # unknown rule or empty reason: does not suppress
        supp.setdefault(idx, {})[rule] = reason
        before = raw[:m.start()].strip()
        if before in ("", "//", "#"):
            supp.setdefault(idx + 1, {})[rule] = reason
    return supp


def collect_float_names(code_lines):
    """Identifiers declared with a float type anywhere in the file.

    Matches only the identifier directly bound to the type — `double x`,
    `vector<double> xs`, `atomic<double>* p` — never other names that
    happen to share a line with a float declaration.
    """
    names = set()
    direct_re = re.compile(r"\b(?:double|float)\s*[&*]?\s*(\w+)")
    templated_re = re.compile(
        r"<\s*(?:double|float)\s*>\s*>?\s*[&*]*\s*(\w+)")
    for line in code_lines:
        if "double" not in line and "float" not in line:
            continue
        for regex in (direct_re, templated_re):
            for name in regex.findall(line):
                if name not in CPP_KEYWORDS and not name[0].isdigit():
                    names.add(name)
    return names


def collect_hash_names(code_lines):
    """Variables/accessors declared with an unordered container type."""
    names = set()
    tail_re = re.compile(r"(\w+)\s*(?:;|=|\{|\(\s*\)|\[)")
    for line in code_lines:
        if "unordered_map" not in line and "unordered_set" not in line:
            continue
        for name in tail_re.findall(line):
            if name not in CPP_KEYWORDS and not name[0].isdigit():
                names.add(name)
    return names


def loop_bindings(binding):
    if binding.startswith("["):
        return set(re.findall(r"\w+", binding))
    return {binding}


def is_hash_expr(expr, hash_names):
    for token in re.findall(r"\w+", expr):
        if token in hash_names or token in KNOWN_HASH_ACCESSORS:
            return True
    return False


def match_paren(code_lines, line_idx, char_idx):
    """(line, char) of the ')' matching the '(' at the given position."""
    depth = 0
    i, j = line_idx, char_idx
    while i < len(code_lines):
        line = code_lines[i]
        while j < len(line):
            ch = line[j]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return i, j
            j += 1
        i += 1
        j = 0
    return None


def loop_body(code_lines, line_idx, char_idx):
    """Body of the loop whose for-header ')' sits at (line_idx, char_idx),
    as [(line_no_0based, text)] segments.

    Braced bodies run to the matching '}'; braceless bodies to the first
    ';' (which may be on the header line itself)."""
    segments = []
    i, j = line_idx, char_idx + 1
    # Find the first non-space character after the header.
    while i < len(code_lines):
        rest = code_lines[i][j:]
        stripped = rest.lstrip()
        if stripped:
            break
        i += 1
        j = 0
    if i >= len(code_lines):
        return segments
    if stripped.startswith("{"):
        depth = 0
        while i < len(code_lines):
            line = code_lines[i]
            start = j
            while j < len(line):
                ch = line[j]
                if ch == "{":
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    if depth == 0:
                        segments.append((i, line[start:j]))
                        return segments
                j += 1
            segments.append((i, line[start:]))
            i += 1
            j = 0
        return segments
    # Braceless: a single statement ending at ';'.
    while i < len(code_lines):
        line = code_lines[i]
        end = line.find(";", j)
        if end >= 0:
            segments.append((i, line[j:end + 1]))
            return segments
        segments.append((i, line[j:]))
        i += 1
        j = 0
    return segments


def check_hash_order(path, code_lines, float_names, hash_names, findings):
    for idx, line in enumerate(code_lines):
        m = RANGE_FOR_RE.search(line)
        if not m:
            continue
        open_paren = line.find("(", m.start())
        close = match_paren(code_lines, idx, open_paren)
        if close is None:
            continue
        # The container expression: everything between ':' and the header's
        # closing ')' (possibly spanning lines).
        if close[0] == idx:
            expr = line[m.start(2):close[1]]
        else:
            expr = line[m.start(2):]
            for k in range(idx + 1, close[0]):
                expr += " " + code_lines[k]
            expr += " " + code_lines[close[0]][:close[1]]
        if not is_hash_expr(expr, hash_names):
            continue
        bindings = loop_bindings(m.group(1))
        flagged = False
        for bidx, body in loop_body(code_lines, close[0], close[1]):
            for am in ACCUM_RE.finditer(body):
                target = am.group(1)
                bracket = re.search(r"\[([^\]]*)\]", target)
                if bracket and set(re.findall(r"\w+", bracket.group(1))) \
                        & bindings:
                    continue  # keyed write: order-independent
                base = re.findall(r"\w+", target)
                rhs = body[am.end():].split(";", 1)[0]
                rhs_names = set(re.findall(r"\w+", rhs))
                is_float = (any(b in float_names for b in base)
                            or any(b in float_names and b in rhs_names
                                   for b in bindings))
                if is_float:
                    findings.append(Finding(
                        path, idx + 1, "hash-order",
                        "float accumulation into '%s' inside a loop over "
                        "unordered container '%s' (line %d): result depends "
                        "on hash insertion history; iterate a sorted view"
                        % (target, expr.strip(), bidx + 1)))
                    flagged = True
                    break
            if not flagged and OUTPUT_RE.search(body):
                findings.append(Finding(
                    path, idx + 1, "hash-order",
                    "output emitted inside a loop over unordered container "
                    "'%s' (line %d): emission order depends on hash "
                    "insertion history; iterate a sorted view"
                    % (expr.strip(), bidx + 1)))
                flagged = True
            if flagged:
                break


def check_raw_time(path, code_lines, findings):
    norm = path.replace(os.sep, "/")
    if ("common/rng" in norm or "bench_util" in norm
            or "/tools/" in norm or norm.startswith("tools/")):
        return
    for idx, line in enumerate(code_lines):
        m = RAW_TIME_RE.search(line)
        if m:
            findings.append(Finding(
                path, idx + 1, "raw-time",
                "raw time/entropy source '%s': results must be pure in "
                "(spec, seed); use common/rng.h, or confine timing to "
                "bench_util/tools" % m.group(0).strip("(").strip()))


def check_raw_thread(path, code_lines, findings):
    norm = path.replace(os.sep, "/")
    if "/common/" in norm or norm.startswith("common/"):
        return
    # Concurrency tests drive the annotated primitives from raw threads on
    # purpose — that is the thing under test, not a thread-ownership leak.
    if "_test." in os.path.basename(norm) or "/tests/" in norm \
            or norm.startswith("tests/"):
        return
    for idx, line in enumerate(code_lines):
        if RAW_THREAD_RE.search(line):
            findings.append(Finding(
                path, idx + 1, "raw-thread",
                "raw std::thread outside common/: use ThreadPool, or mark "
                "an audited thread owner with a suppression"))


def is_zero_literal(lit):
    try:
        return float(lit.rstrip("fF")) == 0.0
    except ValueError:
        return False


def check_float_eq(path, code_lines, float_names, findings):
    norm = path.replace(os.sep, "/")
    if "_test." in os.path.basename(norm) or "/tests/" in norm \
            or norm.startswith("tests/"):
        return
    for idx, line in enumerate(code_lines):
        flagged = False
        for m in FLOAT_CMP_RE.finditer(line):
            lit = m.group(1) or m.group(2)
            if not is_zero_literal(lit):
                findings.append(Finding(
                    path, idx + 1, "float-eq",
                    "exact ==/!= against float literal %s: compare with an "
                    "explicit tolerance (exact-zero sentinels are exempt)"
                    % lit))
                flagged = True
                break
        if flagged:
            continue
        for m in NAME_CMP_RE.finditer(line):
            lhs, rhs = m.group(1), m.group(3)
            if lhs in float_names and rhs in float_names:
                findings.append(Finding(
                    path, idx + 1, "float-eq",
                    "exact %s %s %s between float values: compare with an "
                    "explicit tolerance" % (lhs, m.group(2), rhs)))
                break


def lint_cpp(path, raw_lines):
    code_lines = strip_cpp_noise(raw_lines)
    float_names = collect_float_names(code_lines)
    hash_names = collect_hash_names(code_lines)
    findings = []
    check_hash_order(path, code_lines, float_names, hash_names, findings)
    check_raw_time(path, code_lines, findings)
    check_raw_thread(path, code_lines, findings)
    check_float_eq(path, code_lines, float_names, findings)
    return findings


def lint_py(path, raw_lines):
    findings = []
    norm = path.replace(os.sep, "/")
    if "_test." in os.path.basename(norm) or "/tests/" in norm \
            or norm.startswith("tests/"):
        return findings
    for idx, raw in enumerate(raw_lines):
        code = raw.split("#", 1)[0]
        for m in FLOAT_CMP_RE.finditer(code):
            lit = m.group(1) or m.group(2)
            if not is_zero_literal(lit):
                findings.append(Finding(
                    path, idx + 1, "float-eq",
                    "exact ==/!= against float literal %s: compare with an "
                    "explicit tolerance" % lit))
                break
    return findings


def lint_file(path):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            raw_lines = f.read().splitlines()
    except OSError as e:
        print("dgt_lint: cannot read %s: %s" % (path, e), file=sys.stderr)
        return None
    ext = os.path.splitext(path)[1]
    if ext in CPP_EXTS:
        findings = lint_cpp(path, raw_lines)
    elif ext in PY_EXTS:
        findings = lint_py(path, raw_lines)
    else:
        return []
    supp = collect_suppressions(raw_lines)
    return [f for f in findings
            if f.rule not in supp.get(f.line, {})]


def gather(paths):
    files = []
    for p in paths:
        if os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in sorted(names):
                    if os.path.splitext(name)[1] in CPP_EXTS | PY_EXTS:
                        files.append(os.path.join(root, name))
        elif os.path.isfile(p):
            files.append(p)
        else:
            print("dgt_lint: no such path: %s" % p, file=sys.stderr)
            return None
    return files


def main(argv):
    parser = argparse.ArgumentParser(
        prog="dgt_lint",
        description="determinism linter (rules: %s)" % ", ".join(RULES))
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule names and exit")
    args = parser.parse_args(argv)
    if args.list_rules:
        print("\n".join(RULES))
        return 0
    files = gather(args.paths)
    if files is None:
        return 2
    all_findings = []
    for path in files:
        findings = lint_file(path)
        if findings is None:
            return 2
        all_findings.extend(findings)
    for f in all_findings:
        print(f)
    if all_findings:
        print("dgt_lint: %d finding(s) in %d file(s) scanned"
              % (len(all_findings), len(files)), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
