#!/usr/bin/env python3
"""Tests for scripts/perf_compare.py on synthetic google-benchmark exports.

Each export mimics what google-benchmark 1.7.1 writes for
--benchmark_repetitions=5: the repetition rows, then per row the
`median` aggregate (in time units) and the `cv` aggregate (a fraction),
and for a row that called SkipWithError one errored row with
real_time 0 and no aggregates. Registered in ctest with the `tooling`
label; needs no C++ build.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import perf_compare  # noqa: E402

_failures: list[str] = []


def check(cond: bool, label: str, detail: str = "") -> None:
    print(f"[{'ok' if cond else 'FAIL'}] {label}")
    if not cond:
        if detail:
            print(detail)
        _failures.append(label)


def export(rows: dict[str, tuple[float, float]], errors: dict[str, str] | None = None,
           flavor: str = "release", aggregates: bool = True, isa: str = "avx2") -> dict:
    """rows: name -> (median ns, cv); errors: name -> error_message."""
    benchmarks = []
    for name, (median, cv) in rows.items():
        for rep in range(5):
            benchmarks.append({"name": name, "run_name": name, "run_type": "iteration",
                               "repetitions": 5, "repetition_index": rep,
                               "iterations": 1000, "real_time": median * (0.98 + 0.01 * rep),
                               "cpu_time": median, "time_unit": "ns"})
        if aggregates:
            for agg, value, unit in (("median", median, "time"), ("cv", cv, "percentage")):
                benchmarks.append({"name": f"{name}_{agg}", "run_name": name,
                                   "run_type": "aggregate", "repetitions": 5,
                                   "aggregate_name": agg, "aggregate_unit": unit,
                                   "iterations": 5, "real_time": value, "cpu_time": value,
                                   "time_unit": "ns"})
    for name, message in (errors or {}).items():
        benchmarks.append({"name": name, "run_name": name, "run_type": "iteration",
                           "repetitions": 5, "repetition_index": 0, "error_occurred": True,
                           "error_message": message, "iterations": 0, "real_time": 0.0,
                           "cpu_time": 0.0, "time_unit": "ns"})
    return {"context": {"bhss_build_flavor": flavor, "bhss_simd_isa": isa},
            "benchmarks": benchmarks}


def run(tmp: Path, results: dict, baseline: dict | None, *flags: str) -> tuple[int, str]:
    """Writes the exports under tmp and runs perf_compare.main on them; a
    None baseline leaves tmp/baseline.json as it is."""
    res_path = tmp / "results.json"
    res_path.write_text(json.dumps(results))
    base_path = tmp / "baseline.json"
    if baseline is not None:
        base_path.write_text(json.dumps(baseline))
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = perf_compare.main([str(res_path), *flags], baseline=base_path)
    return code, out.getvalue()


BASE = {"BM_Tight/1": (1000.0, 0.02), "BM_Noisy/1": (500.0, 0.10), "BM_Other": (80.0, 0.01)}


def with_times(**scale: float) -> dict[str, tuple[float, float]]:
    return {n: (m * scale.get(n.split("/")[0], 1.0), cv) for n, (m, cv) in BASE.items()}


def main() -> int:
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        baseline = export(BASE)

        code, out = run(tmp, export(BASE), baseline)
        check(code == 0, "unchanged results pass", out)

        code, out = run(tmp, export(with_times(BM_Tight=1.25)), baseline)
        check(code == 1 and "BM_Tight/1" in out and "REGRESSED" in out,
              "row with a 15 % bound fails 25 % slower", out)

        code, out = run(tmp, export(with_times(BM_Noisy=1.25)), baseline)
        check(code == 0, "row recorded at 10 % CV passes 25 % slower (bound 1.30x)", out)

        code, out = run(tmp, export(with_times(BM_Noisy=1.35)), baseline)
        check(code == 1, "row recorded at 10 % CV fails 35 % slower", out)

        rows = dict(BASE)
        del rows["BM_Other"]
        code, out = run(tmp, export(rows, {"BM_Other": "non-finite FFT output"}), baseline)
        check(code == 1 and "non-finite FFT output" in out and "not gated" not in out,
              "errored row fails and prints its error_message", out)

        code, out = run(tmp, export({}, {"BM_Other": "non-finite FFT output"}), baseline)
        check(code == 1 and "non-finite FFT output" in out,
              "results with only errored rows fail and print the error_message", out)

        code, out = run(tmp, export(BASE, flavor="debug"), baseline)
        check(code == 2 and "'debug'" in out, "debug build flavour is refused", out)

        code, out = run(tmp, export(BASE, aggregates=False), baseline)
        check(code == 2 and "median/cv" in out, "results without aggregates are refused", out)

        code, out = run(tmp, export(BASE, isa="scalar"), baseline)
        check(code == 2 and "'scalar'" in out and "'avx2'" in out,
              "results of another ISA are refused, naming both ISAs", out)

        code, out = run(tmp, export(BASE), export(BASE, aggregates=False))
        check(code == 2, "baseline without aggregates is refused", out)

        # --calibrate: the same refusals, then a round trip of median/cv rows.
        (tmp / "baseline.json").unlink()
        code, out = run(tmp, export(BASE, aggregates=False), None, "--calibrate")
        check(code == 2 and not (tmp / "baseline.json").exists(),
              "--calibrate refuses an export without aggregates", out)

        code, out = run(tmp, export(BASE, flavor="debug"), None, "--calibrate")
        check(code == 2 and not (tmp / "baseline.json").exists(),
              "--calibrate refuses a debug build", out)

        code, out = run(tmp, export(rows, {"BM_Other": "boom"}), None, "--calibrate")
        check(code == 2 and not (tmp / "baseline.json").exists(),
              "--calibrate refuses errored rows", out)

        code, out = run(tmp, export(BASE), None, "--calibrate")
        written = json.loads((tmp / "baseline.json").read_text())
        kinds = {r.get("aggregate_name") for r in written["benchmarks"]}
        check(code == 0 and kinds == {"median", "cv"} and len(written["benchmarks"]) == 6,
              "--calibrate keeps only the median and cv rows", out)
        code, out = run(tmp, export(BASE), None)
        check(code == 0, "a calibrated baseline gates its own recording", out)

        # Units: a baseline recorded in microseconds gates results in ns.
        base_us = export(BASE)
        for r in base_us["benchmarks"]:
            if r.get("aggregate_name") == "median":
                r["real_time"] /= 1e3
                r["time_unit"] = "us"
        code, out = run(tmp, export(BASE), base_us)
        check(code == 0 and "1.00x" in out, "median time units are normalised", out)

    if _failures:
        print(f"\n{len(_failures)} check(s) failed")
        return 1
    print("\nall perf_compare checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
