#!/usr/bin/env python3
"""Tests for the BHSS static-analysis tooling itself.

Two modes, both registered as ctest entries (tests/CMakeLists.txt):

  --fixtures        Run bhss_analyze.py / bhss_lint.py against the
                    good/bad fixture pairs in tests/analyze_fixtures/ and
                    assert each check fires exactly where expected —
                    including the suppression and baseline mechanics.
  --head BUILD_DIR  Run both tools against the real tree (using the
                    compile_commands.json that BUILD_DIR's configure step
                    exported) and assert the acceptance criterion: HEAD
                    is clean.

A regression in either tool — a check that stops firing, a suppression
that stops matching, a lint rule that starts flagging placement-new —
fails these tests, not just silently weakens CI.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "analyze_fixtures"
ANALYZE = REPO_ROOT / "scripts" / "bhss_analyze.py"
LINT = REPO_ROOT / "scripts" / "bhss_lint.py"

_failures: list[str] = []


def check(cond: bool, label: str, detail: str = "") -> None:
    status = "ok" if cond else "FAIL"
    print(f"[{status}] {label}")
    if not cond:
        if detail:
            print(detail)
        _failures.append(label)


def run(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + cmd, capture_output=True,
                          text=True, cwd=REPO_ROOT)


def analyze_fixture(name: str, *extra: str) -> subprocess.CompletedProcess:
    return run([str(ANALYZE), "--paths", str(FIXTURES / name),
                "--no-baseline", *extra])


def expect_fires(name: str, check_id: str, min_count: int = 1) -> None:
    r = analyze_fixture(name)
    hits = r.stdout.count(f"[{check_id}]")
    check(r.returncode == 1 and hits >= min_count,
          f"{name}: {check_id} fires (>= {min_count})",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")


def expect_clean(name: str) -> None:
    r = analyze_fixture(name)
    check(r.returncode == 0, f"{name}: no findings",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")


def fixture_tests() -> None:
    # --- H1: hot-path purity through the call graph ---
    r = analyze_fixture("h1_bad.cpp")
    check(r.returncode == 1 and r.stdout.count("[h1-hot-path-purity]") >= 2,
          "h1_bad.cpp: mutex + transitive allocation both fire",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    check("via" in r.stdout and "accumulate" in r.stdout,
          "h1_bad.cpp: finding names the root->callee chain",
          r.stdout)
    expect_clean("h1_good.cpp")

    # --- H1 on the vector-layer shape: per-call scratch allocation in a
    # hot SIMD-style kernel and a mutex in a hot cache lookup must fire;
    # the caller-buffer kernel + lock-free unordered_map lookup must not
    # (map_.find on a hot path is a D1 concern, never an H1 one).
    r = analyze_fixture("h1_simd_bad.cpp")
    check(r.returncode == 1 and r.stdout.count("[h1-hot-path-purity]") >= 2,
          "h1_simd_bad.cpp: scratch allocation + cache mutex both fire",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    expect_clean("h1_simd_good.cpp")

    # --- H1 on the adapt-layer shape: a per-packet window-buffer copy in
    # the hot note_packet feed and a mutex on the per-hop suspicion update
    # must fire; counter-only feeds with the probability rebuild kept on
    # the cold window-close path must not.
    r = analyze_fixture("h1_adapt_bad.cpp")
    check(r.returncode == 1 and r.stdout.count("[h1-hot-path-purity]") >= 2,
          "h1_adapt_bad.cpp: window-copy allocation + suspicion mutex both fire",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    expect_clean("h1_adapt_good.cpp")

    # --- D1: deterministic fold ---
    expect_fires("d1_bad.cpp", "d1-deterministic-fold")
    expect_clean("d1_good.cpp")

    # --- D1 on the distributed journal-merge shape: a merge_* root that
    # folds worker records out of an unordered container AND tie-breaks by
    # object address must fire twice; the canonical std::map-keyed fold
    # (the journal_merge.cpp shape) with unordered iteration confined to a
    # non-fold diagnostic must not.
    r = analyze_fixture("h1_dist_bad.cpp")
    check(r.returncode == 1 and r.stdout.count("[d1-deterministic-fold]") >= 2,
          "h1_dist_bad.cpp: unordered fold + address tie-break both fire",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    expect_clean("h1_dist_good.cpp")

    # --- D2: RNG discipline ---
    expect_fires("d2_bad.cpp", "d2-rng-discipline", min_count=3)
    expect_clean("d2_good.cpp")
    # An engine declared first after an access label is still a member.
    expect_fires("d2_member_bad.hpp", "d2-rng-discipline")
    expect_clean("d2_member_good.hpp")

    # --- C1: contract coverage ---
    expect_fires("c1_bad.hpp", "c1-contract-coverage", min_count=3)
    expect_clean("c1_good.hpp")

    # --- suppressions ---
    r = analyze_fixture("suppress_ok.cpp")
    check(r.returncode == 0 and "1 suppressed" in r.stdout,
          "suppress_ok.cpp: reasoned suppression silences the finding",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    r = analyze_fixture("suppress_noreason.cpp")
    check(r.returncode == 1 and "[suppression-missing-reason]" in r.stdout,
          "suppress_noreason.cpp: reason-less suppression is itself a finding",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")

    # --- baseline round-trip: write, then gate against it ---
    with tempfile.TemporaryDirectory() as td:
        base = Path(td) / "baseline.txt"
        r = run([str(ANALYZE), "--paths", str(FIXTURES / "d2_bad.cpp"),
                 "--write-baseline", str(base)])
        check(r.returncode == 0 and base.exists(),
              "baseline: --write-baseline records current findings",
              f"exit={r.returncode}\n{r.stdout}{r.stderr}")
        r = run([str(ANALYZE), "--paths", str(FIXTURES / "d2_bad.cpp"),
                 "--baseline", str(base)])
        check(r.returncode == 0 and "baselined" in r.stdout,
              "baseline: baselined findings do not fail the run",
              f"exit={r.returncode}\n{r.stdout}{r.stderr}")

    # --- JSON report shape ---
    r = analyze_fixture("d1_bad.cpp", "--json")
    import json as _json
    try:
        doc = _json.loads(r.stdout)
        ok = (doc["schema_version"] == 1 and doc["tool"] == "bhss-analyze"
              and len(doc["findings"]) >= 1
              and doc["findings"][0]["check"] == "d1-deterministic-fold")
    except (ValueError, KeyError, IndexError):
        ok = False
    check(ok, "d1_bad.cpp --json: valid schema-v1 document", r.stdout)

    # --- lint: token-aware allocation matcher ---
    r = run([str(LINT), "tests/analyze_fixtures/lint_bad.cpp"])
    check(r.returncode == 1
          and r.stdout.count("[raw-allocation]") >= 3
          and r.stdout.count("[unmanaged-random]") >= 2,
          "lint_bad.cpp: raw new / nothrow-new / malloc / rand / "
          "random_device all fire",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    r = run([str(LINT), "tests/analyze_fixtures/lint_good.cpp"])
    check(r.returncode == 0,
          "lint_good.cpp: placement-new, no-destruct union idiom, "
          "operator-new decl and member free() stay clean",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")

    # --- lint: sample-path rules (R1/R4), driven in-process so the
    # fixture dir can stand in for src/dsp ---
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    import bhss_lint

    saved = bhss_lint.SAMPLE_PATH_DIRS
    try:
        bhss_lint.SAMPLE_PATH_DIRS = ("tests/analyze_fixtures/lint_sample_path",)
        found = bhss_lint.lint_file(FIXTURES / "lint_sample_path" / "dsp_api.hpp")
    finally:
        bhss_lint.SAMPLE_PATH_DIRS = saved
    rules = {f.check for f in found}
    flagged_lines = {f.line for f in found}
    scalar_line = next(
        i for i, l in enumerate(
            (FIXTURES / "lint_sample_path" / "dsp_api.hpp")
            .read_text().splitlines(), start=1)
        if "design_cutoff" in l)
    check("sample-path-double" in rules and "vector-ref-param" in rules,
          "dsp_api.hpp: R1 and R4 both fire in a sample-path header",
          repr(found))
    check(scalar_line not in flagged_lines,
          "dsp_api.hpp: scalar double parameters are not flagged",
          repr(found))


def head_tests(build_dir: Path) -> None:
    db = build_dir / "compile_commands.json"
    check(db.exists(), f"compile db exists at {db}")
    if db.exists():
        r = run([str(ANALYZE), "--compile-db", str(db)])
        check(r.returncode == 0,
              "bhss_analyze.py: HEAD is clean against the committed baseline",
              f"exit={r.returncode}\n{r.stdout}{r.stderr}")
    r = run([str(LINT)])
    check(r.returncode == 0, "bhss_lint.py: HEAD is lint-clean",
          f"exit={r.returncode}\n{r.stdout}{r.stderr}")


def main() -> int:
    ap = argparse.ArgumentParser()
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--fixtures", action="store_true")
    mode.add_argument("--head", metavar="BUILD_DIR", type=Path)
    args = ap.parse_args()

    if args.fixtures:
        fixture_tests()
    else:
        head_tests(args.head.resolve())

    if _failures:
        print(f"\n{len(_failures)} static-analysis tooling test(s) FAILED:")
        for f in _failures:
            print(f"  - {f}")
        return 1
    print("\nall static-analysis tooling tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
