"""Run `deladas serve` under the benchmark's span recorder.

    python3 perfbench/serve_traced.py SPANS_FILE serve --socket PATH -r ... -c ...

The arguments after SPANS_FILE go to the deladas command line unchanged. When
the server stops (SIGINT), its spans and counters are appended to SPANS_FILE.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deladas import cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    with spans.Recorder() as rec:
        code = cli.main(argv)
    rec.dump(spans_path, "server")
    return code


if __name__ == "__main__":
    sys.exit(main())
