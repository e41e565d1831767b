"""Traced run: ``onoffnet.cli.main`` for each command, in this one process.

Usage: ``python3 perfbench/traced_child.py COMMANDS.json SPANS.csv RESULT.json``
with the package's ``src`` on ``PYTHONPATH``.  ``COMMANDS.json`` is a list of
argv lists.  Writes every span to ``SPANS.csv`` and, to ``RESULT.json``, the
exit codes, the wall time of the commands (import excluded) and the per-layer
metrics, self times included.
"""

from __future__ import annotations

import json
import sys
import time

from spans import Recorder, instrument, layer_metrics


def main() -> int:
    commands_path, spans_path, result_path = sys.argv[1:4]
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)

    import onoffnet.cli

    recorder = Recorder()
    instrument(recorder)
    codes = []
    start = time.perf_counter()
    for trace, argv in enumerate(commands):
        recorder.trace = trace
        codes.append(onoffnet.cli.main(argv))
    wall = time.perf_counter() - start

    recorder.write(spans_path)
    result = {
        "exit_codes": codes,
        "wall_s": wall,
        "spans": len(recorder.spans),
        "metrics": layer_metrics(recorder.spans, recorder.counters),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
