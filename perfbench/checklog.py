"""Check event logs with the program's own functions.

Usage, with the checkout's sources first on PYTHONPATH:

    python3 perfbench/checklog.py LOG...

For each log: ``validate_log`` passes, ``parse_log(serialize_log(x)) == x``
and re-serialising reproduces the file byte for byte. Prints one JSON
object mapping each log to its list of problems.

The benchmark runs this in a child of its own: parsing a large log in the
benchmark process would raise that process's peak memory, and every child
it starts afterwards reports at least that peak in its ``ru_maxrss``.
"""

import json
import sys
from pathlib import Path

from telegraphsim.eventlog import parse_log, serialize_log, validate_log


def problems_of(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    try:
        records = parse_log(text)
        validate_log(records)
    except ValueError as exc:
        return [f"invalid log: {exc}"]
    again = serialize_log(records)
    problems = []
    if parse_log(again) != records:
        problems.append("parse_log(serialize_log(x)) != x")
    if again != text:
        problems.append("serialize_log(parse_log(text)) differs from the file")
    return problems


if __name__ == "__main__":
    print(json.dumps({name: problems_of(Path(name)) for name in sys.argv[1:]}))
