"""Child process of the benchmark: runs a plan of pdmph CLI invocations.

    python3 perfbench/child.py PLAN.json RESULT.json [SPANS.json]

PLAN.json is a JSON list of argv lists.  Each is run in this process
through `pdmph.cli.main`, exactly as the `pdmph` console script would run
it.  RESULT.json receives the exit code of every argv.  With SPANS.json
given, the tracer is installed first and its spans are written there at
exit.  The pdmph package must come from `src/` of the current directory.
"""

import json
import os
import sys
import traceback


def main(argv):
    plan_path, result_path = argv[:2]
    spans_path = argv[2] if len(argv) > 2 else None
    import pdmph
    import pdmph.cli
    src = os.path.realpath("src")
    if not os.path.realpath(pdmph.__file__).startswith(src + os.sep):
        print(f"pdmph imported from {pdmph.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    with open(plan_path) as fh:
        plan = json.load(fh)
    codes = []
    for i, op_argv in enumerate(plan):
        if tracer is not None:
            tracer.op = i
        try:
            code = pdmph.cli.main(op_argv)   # looked up per call: the tracer rebinds it
        except SystemExit as exc:      # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:              # a crash fails this operation, not the plan
            traceback.print_exc()
            code = 1
        codes.append(code)
    with open(result_path, "w") as fh:
        json.dump({"codes": codes}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
