#!/usr/bin/env python3
"""Run every gated bench and check its results.

Usage:
    python3 bench/check.py BUILD_DIR

After a self-test of the baseline comparator (bench/same_sim.py):
  1. each paper bench in PAPER prints only simulated figures, so its stdout
     must equal bench/expected/<bench>.txt byte for byte;
  2. each extension bench in BASELINES runs in BUILD_DIR/bench_check (the
     bench exits 1 when one of its own claims fails), and every simulated
     field of the JSON it writes must equal the committed baseline;
  3. the host-time gates in host_gates() hold.

Prints one line per check and exits 1 if any failed. The JSON of the last
run stays in BUILD_DIR/bench_check.
"""

import contextlib
import difflib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys

import same_sim

REPO = pathlib.Path(__file__).resolve().parent.parent

PAPER = [
    "fig2_stream_vs_block", "fig4_secure_dma", "fig5_gi_cbc_auth",
    "fig6_dallas_kuhn", "fig7_edu_placement", "fig8_compress_encrypt",
    "tab1_survey_overheads", "tab3_write_penalty", "tab5_cbc_random_access",
    "tab6_integrity",
]

BASELINES = {
    "tab7_throughput": "BENCH_throughput.json",
    "tab8_multimaster": "BENCH_multimaster.json",
    "tab9_authenticated": "BENCH_authenticated.json",
    "tab10_fleet": "BENCH_fleet.json",
    "tab11_keyslot_churn": "BENCH_keyslot.json",
    "tab12_interconnect": "BENCH_interconnect.json",
    "tab13_update": "BENCH_update.json",
}


def same(base_path, new_path):
    """same_sim's exit code on two JSON files, and its message."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = same_sim.main([str(base_path), str(new_path)])
    return rc, out.getvalue().strip()


def comparator_selftest(tmp):
    """same_sim must catch one moved simulated field and ignore host_* ones."""
    base = REPO / "BENCH_fleet.json"
    moved, host = json.loads(base.read_text()), json.loads(base.read_text())
    moved["matrix"][0]["cycles"] += 1
    host["host_serial_ms"] += 1.0
    host["matrix"][0]["host_fleet_ms"] += 1.0
    (tmp / "moved.json").write_text(json.dumps(moved))
    (tmp / "host.json").write_text(json.dumps(host))
    return same(base, tmp / "moved.json")[0] == 1 and same(base, tmp / "host.json")[0] == 0


def host_gates(runs, cores, cpu_flags):
    """Machine-dependent gates on the fresh JSON, as (ok, what) pairs."""
    tab7 = runs["tab7_throughput"]
    by = {e["engine"]: e for e in tab7["engines"]}
    # Serial-decipher DES engines: 20x / 5x their pre-bitslice host
    # throughput (1,725 and 44,207 ops/s). A 4-vCPU Xeon measures 55-70k
    # and 335-413k, so the floors leave >1.5x headroom for slower runners
    # while still catching a fall back to the scalar path.
    gates = [
        (by["GI-3DES-CBC+MAC"]["host_ops_per_sec"] >= 20 * 1725,
         "tab7 GI-3DES-CBC+MAC host ops/s >= 34,500"),
        (by["Gilmont-3DES"]["host_ops_per_sec"] >= 5 * 44207,
         "tab7 Gilmont-3DES host ops/s >= 221,035"),
        # The aggregate is recomputed from the per-engine splits.
        (abs(tab7["host_ms"] - sum(e["host_ms"] for e in tab7["engines"])) < 1.0,
         "tab7 host_ms is the sum of its per-engine rows"),
        # Serial churn pass: 2.8-3.7 s on a 4-vCPU Xeon, 13-20 s with the
        # old GF-multiply key schedule.
        (runs["tab11_keyslot_churn"]["host_serial_ms"] <= 7500,
         "tab11 serial churn pass <= 7500 ms"),
    ]
    # A fleet that does not beat its serial pass on >= 4 cores shares state.
    for bench in ("tab10_fleet", "tab11_keyslot_churn"):
        d = runs[bench]
        if cores >= 4 and d["host_threads"] >= 4:
            gates.append((d["host_fleet_ms"] < d["host_serial_ms"],
                          f"{bench} fleet wall < serial wall on {cores} cores"))
    # SHA-NI + HMAC midstates: 7.5 s on a 4-vCPU Xeon, 19-22 s without.
    if "sha_ni" in cpu_flags:
        gates.append((runs["tab13_update"]["host_ms"] <= 12000,
                      "tab13 update lifecycle <= 12000 ms with sha_ni"))
    return gates


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build = pathlib.Path(argv[0]).resolve()
    failures = []

    def report(ok, what, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)
            if detail:
                print(detail.rstrip())

    def run(bench, cwd):
        exe = build / bench
        if not exe.exists():
            return None
        return subprocess.run([str(exe)], cwd=cwd, capture_output=True, text=True)

    out = build / "bench_check"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    report(comparator_selftest(out),
           "same_sim rejects a moved simulated field and ignores host_* fields")

    for bench in PAPER:
        p = run(bench, build)
        if p is None or p.returncode != 0:
            report(False, bench, "missing binary" if p is None else p.stderr)
            continue
        want = (REPO / "bench" / "expected" / f"{bench}.txt").read_text()
        diff = "".join(difflib.unified_diff(
            want.splitlines(True), p.stdout.splitlines(True),
            f"bench/expected/{bench}.txt", "stdout"))
        report(not diff, f"{bench} stdout matches bench/expected", diff)

    runs = {}
    for bench, baseline in BASELINES.items():
        p = run(bench, out)
        if p is None or p.returncode != 0:
            report(False, f"{bench} claims", "missing binary" if p is None else p.stderr)
            continue
        runs[bench] = json.loads((out / baseline).read_text())
        rc, msg = same(REPO / baseline, out / baseline)
        report(rc == 0, f"{bench} claims and every simulated field of {baseline}",
               msg)

    if len(runs) == len(BASELINES):
        cpuinfo = pathlib.Path("/proc/cpuinfo")
        flags = cpuinfo.read_text().split() if cpuinfo.exists() else []
        for ok, what in host_gates(runs, os.cpu_count() or 1, flags):
            report(ok, what)

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
