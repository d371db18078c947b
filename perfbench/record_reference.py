"""Record the default-seed reference outputs that run.py compares against.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are trusted.  An operation that raises
or fails its own check is recorded as null: it counts as failed by its check
today, and once the program is fixed it is checked without a reference.
"""

import json
import sys

import run
import workloads


def main() -> int:
    ref = {}
    for name in workloads.WORKLOADS:
        ops = workloads.make_ops(name, run.DEFAULT_SEED)
        workloads.warm_up()
        outputs = []
        for i, op in enumerate(ops):
            try:
                out = workloads.run_op(op)
                reason = workloads.check_op(op, out)
            except Exception as exc:  # recorded as a known failure
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                print(f"{name}: op {i} ({op.kind}) not recorded: {reason}", flush=True)
                outputs.append(None)
            else:
                outputs.append(workloads.reference_form(op, out))
        ref[name] = {"inputs": workloads.inputs_digest(ops), "outputs": outputs}
        print(f"{name}: {sum(o is not None for o in outputs)} of {len(ops)} operations "
              "recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
