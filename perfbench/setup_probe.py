"""Measure one fresh process's set-up: import, configs, problems and validate_for.

Run by ``perfbench/run.py`` several times per run; prints the seconds taken
as its last line.
"""

from time import perf_counter

t0 = perf_counter()

import argparse  # noqa: E402

import checkout  # noqa: E402


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    checkout.prepare()
    import workloads

    workloads.setup(args.workload, args.seed, workloads.TINY if args.tiny else workloads.FULL)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
