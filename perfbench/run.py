"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload short-h50 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout: the program is imported from its
``src/`` directory. With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` the same run is
traced and the object holds the per-layer metrics instead, and the spans go
to ``.perfbench-out/``. Generated inputs and checkpoints live in a temporary
directory under ``.perfbench-out/`` that is removed when the run ends.
"""

import os

# One BLAS thread: the matrices are at most 80 x 300, too small to gain from
# more, and a single thread keeps run-to-run spread down. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, SRC)


def _import_program():
    """Import absa_gcn from this checkout's src/, or exit with a message if it is not there."""
    try:
        import absa_gcn
    except ImportError as err:
        sys.exit(f"perfbench: cannot import absa_gcn from {SRC}: {err}")
    if not os.path.abspath(absa_gcn.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: absa_gcn was imported from {absa_gcn.__file__}, not from {SRC}")


def main(argv=None) -> int:
    _import_program()
    import harness
    from tracer import Tracer

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = harness.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec.name}-{args.seed}-", dir=OUT)
    try:
        result = harness.run(spec, args.seed, args.seconds, workdir, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.write(os.path.join(OUT, f"trace-{spec.name}.tsv"))

    metrics = result.per_layer if tracer is not None else result.end_to_end
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {result.attempted}, failed = {result.failed}")
    for name, why in result.check_failures.items():
        print(f"check {name} FAILED: {why}")
    print(
        json.dumps(
            {
                "correct": not result.check_failures,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
