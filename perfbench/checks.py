"""Output checks: digests recorded at the default seed, invariants at any seed."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from inputs import FUZZ_BUDGET, FUZZ_FAMILIES, FUZZ_MAX_ORDER, Item

EXPECTED_PATH = Path(__file__).with_name("expected.json")
THEOREM_COUNT = 19


def digest(rc: int, out: str, err: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}\n{err}".encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _check_verify(item: Item, rc: int, out: str, expected: dict) -> str | None:
    want = expected["verify"][item.slot]
    if rc != want["exit"]:
        return f"exit {rc}, expected {want['exit']}"
    verdicts = json.loads(out)
    if [v["status"] for v in verdicts] != want["statuses"]:
        return "verdict statuses differ from the recorded ones"
    return None


def _check_fuzz(item: Item, rc: int, out: str) -> str | None:
    report = json.loads(out)
    cfg = report["config"]
    if (cfg["max_order"], ",".join(cfg["families"]), cfg["budget"]) != (
        FUZZ_MAX_ORDER, FUZZ_FAMILIES, FUZZ_BUDGET
    ):
        return f"unexpected fuzz config {cfg}"
    if report["rings_checked"] != FUZZ_BUDGET:
        return f"checked {report['rings_checked']} rings, expected {FUZZ_BUDGET}"
    if sum(report["verdict_counts"].values()) != FUZZ_BUDGET * THEOREM_COUNT:
        return "verdict counts do not cover every theorem on every ring"
    if any(f["red_alert"] for f in report["failures"]):
        return "red alert raised"
    want_rc = 1 if report["failures"] else 0
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}"
    return None


def _check_accept(item: Item, rc: int, out: str, expected: dict) -> str | None:
    if rc != 0:
        return f"exit {rc}, expected 0"
    want = expected["structural"][item.slot]
    got = json.loads(out)
    n = len(want["cover"])
    if (got["label"], got["order"]) != (f"table{n}", n):
        return f"unexpected label/order {got['label']!r}/{got['order']}"
    if item.argv[0] == "classify":
        if got["flags"] != want["flags"]:
            return f"flags {got['flags']} differ from the structural carrier's"
        return None
    perm = item.perm
    relabelled = [None] * n
    for x, c in enumerate(want["cover"]):
        relabelled[perm[x]] = None if c is None else int(perm[c])
    if got["cover"] != relabelled:
        return "cover table differs from the relabelled structural one"
    return None


def _check_reject(rc: int, out: str, err: str) -> str | None:
    if rc != 2:
        return f"exit {rc}, expected 2"
    if out:
        return "rejected table wrote to stdout"
    if json.loads(err)["error"] != "invalid-tables":
        return f"unexpected error kind in {err.strip()!r}"
    return None


def check(item: Item, rc: int, out: str, err: str, expected: dict, digests: dict) -> str | None:
    """Why the item's output is wrong, or None when it is right.

    ``digests`` maps item names to recorded digests; it is empty for seeds
    other than the recorded one, where only the invariants are checked.
    """
    try:
        if item.kind == "verify":
            why = _check_verify(item, rc, out, expected)
        elif item.kind == "fuzz":
            why = _check_fuzz(item, rc, out)
        elif item.kind == "accept":
            why = _check_accept(item, rc, out, expected)
        else:
            why = _check_reject(rc, out, err)
    except (ValueError, KeyError, TypeError) as exc:
        why = f"unreadable output: {exc!r}"
    if why is None and item.name in digests and digest(rc, out, err) != digests[item.name]:
        why = "output digest differs from the recorded one"
    return why
