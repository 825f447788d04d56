"""Self-test of the known-answer checks: one pass of each workload, seed 1,
with one planted wrong expectation must report at least one failed item.

Usage: python3 perfbench/selftest.py
"""

import sys

import run


def main():
    ok = True
    for workload in run.WORKLOADS:
        result = run.run_pass(workload, 1, "plant")
        caught = result["failed"] >= 1
        ok &= caught
        print(f"{workload:<13} planted wrong answer: failed={result['failed']}/{result['attempted']} "
              f"error_rate={result['failed'] / result['attempted']:.4g} "
              f"{'caught' if caught else 'MISSED'}")
        for line in result["failures"]:
            print(f"  {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
