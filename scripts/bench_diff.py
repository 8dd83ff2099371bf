#!/usr/bin/env python3
"""A/B two captured runs of the same criterion bench binary.

The criterion harness prints lines of the form

    bench <group>/<id> ... median <duration> (<n> samples)

This script parses two such captures and fails (exit 1) when the
geometric-mean ratio B/A exceeds ``1 + tolerance``. CI uses it as the
fault-layer overhead guard: run A with fault injection disabled (no
RELALG_FAULTS), run B with an injector armed at rate zero
(RELALG_FAULTS=<seed>:0, plumbed through every I/O edge but never
firing) — the pair must agree within 2%.

Usage:
    cargo bench --bench queries > /tmp/a.txt
    RELALG_FAULTS=7:0 cargo bench --bench queries > /tmp/b.txt
    scripts/bench_diff.py ab /tmp/a.txt /tmp/b.txt --tolerance 0.02

Only the geometric mean across all benches is gated: per-bench jitter
averages out, so a tight 2% bound holds for back-to-back runs of the
same binary. End-to-end performance is measured by the repository
benchmark in ``benchmark/``, not here.
"""

import math
import os
import re
import sys

LINE = re.compile(
    r"^bench\s+(?P<name>\S+)\s+\.\.\.\s+median\s+(?P<dur>[0-9.]+)(?P<unit>ns|µs|us|ms|s)\b"
)

UNIT_SECONDS = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}


def parse_bench_output(lines):
    """Parse criterion output lines into {bench name: seconds}."""
    out = {}
    for line in lines:
        m = LINE.match(line.strip())
        if m:
            out[m.group("name")] = float(m.group("dur")) * UNIT_SECONDS[m.group("unit")]
    return out


def ab(path_a, path_b, tolerance):
    """Compare two captured runs of the same bench binary: fail when the
    geometric mean of per-bench ratios B/A exceeds ``1 + tolerance``."""
    with open(path_a) as f:
        a = parse_bench_output(f)
    with open(path_b) as f:
        b = parse_bench_output(f)
    if not a or not b:
        print("no `bench ... median ...` lines found in an input", file=sys.stderr)
        return 2
    # Both files come from the same binary run back to back, so a name
    # present on one side only means a truncated or mismatched capture —
    # an error, not a footnote.
    if set(a) != set(b):
        odd = ", ".join(sorted(set(a) ^ set(b)))
        print(f"bench sets differ between runs: {odd}", file=sys.stderr)
        return 2
    width = max(len(n) for n in a)
    print(f"{'bench':<{width}}  {'A':>12}  {'B':>12}  ratio")
    ratios = []
    rows = []
    for name in sorted(a):
        ratio = b[name] / a[name] if a[name] > 0 else float("inf")
        ratios.append(ratio)
        print(f"{name:<{width}}  {a[name]:>12.6f}  {b[name]:>12.6f}  {ratio:5.3f}x")
        rows.append((name, f"{a[name]:.6f}", f"{b[name]:.6f}", f"{ratio:.3f}x"))
    gm = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    ok = gm <= 1.0 + tolerance
    verdict = (
        f"geometric-mean ratio {gm:.4f}x over {len(ratios)} benches "
        f"({'within' if ok else 'EXCEEDS'} 1 + {tolerance:.3f})"
    )
    print(f"\n{verdict}")
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as f:
            f.write(f"### Bench A/B `{path_a}` vs `{path_b}`\n\n")
            f.write("| bench | A (s) | B (s) | ratio |\n|---|---:|---:|---:|\n")
            for name, va, vb, ratio in rows:
                f.write(f"| `{name}` | {va} | {vb} | {ratio} |\n")
            f.write(f"\n{verdict}\n\n")
    return 0 if ok else 1


def main(argv):
    if len(argv) < 4 or argv[1] != "ab":
        print(__doc__)
        return 2
    tolerance = 0.02
    if "--tolerance" in argv:
        tolerance = float(argv[argv.index("--tolerance") + 1])
    return ab(argv[2], argv[3], tolerance)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
