"""One timed repetition of one workload, in a fresh interpreter.

``run.py`` starts this script once per repetition, so the package's
module-level caches start empty every time, as they do for a command-line
user.  The script imports the package from the checkout's ``src``,
builds the workload's inputs, times the job (with the tracer installed
when ``--trace 1``), checks the outputs and writes one JSON result file.

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR \\
        --result FILE --spawned T [--trace 0|1] [--write-reference]

``--spawned`` is the ``time.monotonic()`` reading the parent took just
before starting this interpreter; set-up time is measured from it.
``--write-reference`` records this run's outputs as the reference for
the default seed instead of comparing with them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    import cthmm_subtyping

    src = (ROOT / "src").resolve()
    if src not in Path(cthmm_subtyping.__file__).resolve().parents:
        print(f"imported cthmm_subtyping from {cthmm_subtyping.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.setup(args.seed, args.workdir)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.trace:
        with Tracer() as tracer:
            out = workload.run(inputs)
    else:
        out = workload.run(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    workload.check(inputs, out)
    if args.write_reference:
        if out.failures:
            print(f"not recording a failed run: {out.failures}", file=sys.stderr)
            return 1
        path = workloads.REFERENCE_DIR / f"{args.workload}.json"
        path.write_text(json.dumps(workload.reference_values(out)) + "\n", encoding="utf-8")
    elif args.seed == workloads.DEFAULT_SEED and not out.failures:
        ids = out.values["ids"] if workload.per_patient else None
        for index, reason in workloads.compare_reference(
            args.workload, workload.reference_values(out)
        ).items():
            if ids is None:
                op = "fit"
            else:
                op = ids[index] if index >= 0 else "reference"
            out.failures.setdefault(op, reason)

    result = {
        "setup_s": setup_s,
        "job_s": out.job_s,
        "patients": out.patients,
        "attempted": out.attempted,
        "failures": out.failures,
        "latencies_ms": out.latencies_ms,
        "peak_rss_mb": peak_rss_mb,
        "digest": workload.digest(out),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["reassign"] = tracer.child_spans(
            "inference.trajectory_log_likelihood", "mixture.fit_mixture"
        )
        tracer.write(args.workdir / "spans.npz")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
