#!/usr/bin/env python3
"""Record perfbench/expected.json from the program as it stands.

    python3 perfbench/record.py

Stores each ladder carrier's classification flags and central covers, the
verify verdicts and output digests of the ladder (they do not depend on the
seed), and the digest of every item's output at the default seed. Run it
only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import contextlib
import io
import json

import checks
import inputs
import run

RECORD_SEED = 42


def _outputs(cli, items):
    for item in items:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(item.argv))
        yield item, rc, out.getvalue(), err.getvalue()


def main() -> int:
    cli = run._import_program()
    from starorder import classify, cover_table, realize, spec_from_json

    expected = {"seed": RECORD_SEED, "structural": {}, "verify": {}, "digests": {}}
    for slot, spec in inputs.LADDER:
        ring = realize(spec_from_json(spec))
        expected["structural"][slot] = {
            "flags": classify(ring).flags(),
            "cover": list(cover_table(ring).cover),
        }
    for workload, make in inputs.WORKLOADS.items():
        recorded = {}
        for item, rc, out, err in _outputs(cli, make(RECORD_SEED)):
            recorded[item.name] = checks.digest(rc, out, err)
            if item.kind == "verify":
                expected["verify"][item.slot] = {
                    "exit": rc,
                    "statuses": [v["status"] for v in json.loads(out)],
                }
        seed = None if workload == "verify-ladder" else RECORD_SEED
        expected["digests"][workload] = {"seed": seed, "items": recorded}
    checks.EXPECTED_PATH.write_text(json.dumps(expected, separators=(",", ":")) + "\n")
    print(f"wrote {checks.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
