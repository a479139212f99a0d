#!/usr/bin/env python3
"""Small-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Every workload runs for one second,
untraced and traced: each must pass its checks and print its end-to-end
rows, and its JSON line must carry the metrics BENCHMARK.json names. Then each
correctness check is run against a seeded fault (`--fault`) and must fail
the run: exit code 1 and `"correct": false`. Last, a fixed extra cost
seeded into the scheduler loop of a rerun window (`--fault slow`) must
lower the scaled throughput as it lowers the raw one: the machine-speed
reference must not absorb a slowdown of the program.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "iabench.exe")

# every workload's end-to-end rows; the JSON line of a gated workload
# carries BENCHMARK.json's end-to-end list
SIM_ROWS = ["setup_s", "commit_tx_s", "commit_p50_vms", "commit_p99_vms", "failed_frac", "peak_rss_mib"]
AUDIT_ROWS = ["setup_s", "audit_tx_s", "receipt_verify_p50_ms", "receipt_verify_p99_ms", "failed_frac", "peak_rss_mib"]
AUDIT_JSON = ["audit_tx_s", "receipt_verify_p50_ms", "receipt_verify_p99_ms", "peak_rss_mib", "setup_s"]
WORKLOADS = {"smallbank-lan": SIM_ROWS, "blob-lan": SIM_ROWS, "smallbank-wan": SIM_ROWS, "audit-replay": AUDIT_ROWS}

# fault -> the check it must trip, per kind of workload
SIM_FAULTS = {
    "accounting": "accounting_closes",
    "output": "outputs_valid",
    "receipt": "sampled_receipts_verify",
    "determinism": "same_seed_runs_identical",
    "audit": "honest_ledger_audits_ok",
    "tamper": "tampered_copy_yields_upom",
}
AUDIT_FAULTS = {
    "receipt": "receipts_verify",
    "audit": "honest_package_audits_ok",
    "tamper": "tampered_copy_yields_upom",
    "determinism": "same_seed_runs_identical",
}


# The plain window's throughput over the slowed one's, as read (R) and
# scaled (S). R / S is how much slower the reference read the machine
# during the slowed window than during the plain one; a reference that
# absorbed the program's slowdown would read R / S = R. The share it
# absorbed, (R / S - 1) / (R - 1), must stay under SLOW_MAX_ABSORBED
# (the machine's own changes between the two windows move it a little
# either way), and the seeded cost must be plain to see (R >= SLOW_MIN_RATIO).
SLOW_MIN_RATIO = 1.5
SLOW_MAX_ABSORBED = 0.25


def pin():
    # as perfbench/run.py does: the benchmark and its reference share one processor
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run(workload, trace, fault=None, seconds=1):
    args = [EXE, "--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
    if fault:
        args += ["--fault", fault]
    p = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=170, preexec_fn=pin)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines[:-1], json.loads(lines[-1]) if lines else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    if subprocess.run(["dune", "build", "--root", ROOT, "./perfbench/iabench.exe"], cwd=ROOT).returncode:
        return 1
    problems = []
    for workload, rows in WORKLOADS.items():
        for trace, names in ((0, AUDIT_JSON if workload == "audit-replay" else e2e), (1, layers)):
            code, table, result = run(workload, trace)
            printed = {line.split()[0] for line in table if line and not line.startswith("check")}
            if code != 0 or not result["correct"]:
                problems.append(f"{workload} trace={trace}: exit {code}, correct={result and result['correct']}")
            elif sorted(result["metrics"]) != sorted(names):
                problems.append(f"{workload} trace={trace}: JSON metrics {sorted(result['metrics'])}")
            elif trace == 0 and not set(rows) <= printed:
                problems.append(f"{workload}: table lacks {sorted(set(rows) - printed)}")
            print(f"{workload} trace={trace}: exit {code}", flush=True)
        faults = AUDIT_FAULTS if workload == "audit-replay" else SIM_FAULTS
        for fault, check in faults.items():
            code, table, result = run(workload, 0, fault)
            tripped = any(line.startswith("check " + check) and "FAILED" in line for line in table)
            if code != 1 or result["correct"] or not tripped:
                problems.append(f"{workload} fault={fault}: exit {code}, {check} did not fail")
            print(f"{workload} fault={fault}: exit {code}, {check} tripped={tripped}", flush=True)
    for workload in ("smallbank-lan", "blob-lan"):
        code, table, result = run(workload, 0, "slow", seconds=4)
        line = next((l for l in table if l.startswith("slowed rerun:")), None)
        if code != 0 or line is None:
            problems.append(f"{workload} fault=slow: exit {code}, no slowdown line")
            continue
        raw, scaled = (float(x.split()[-1]) for x in line.split(":", 1)[1].split(","))
        absorbed = (raw / scaled - 1) / (raw - 1) if raw > 1 else 1
        if raw < SLOW_MIN_RATIO or absorbed > SLOW_MAX_ABSORBED:
            problems.append(f"{workload} fault=slow: {line}")
        print(f"{workload} fault=slow: throughput ratio raw {raw}, scaled {scaled}, absorbed {absorbed:.3f}", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
