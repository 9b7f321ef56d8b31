"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose behaviour is the reference:

    python3 perfbench/make_golden.py

It writes the stored deployments under perfbench/inputs/ and the digests in
perfbench/golden.json: the first-solution DDD of randc at 4..10 hosts, the
trace of every failover episode, the answer of the serve workload's pinned
`satisfy`, and the episodes that fail at this commit. Rewriting the file
changes what "same behaviour" means, so do it only on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import core  # noqa: E402
import serve  # noqa: E402


def main() -> int:
    core.INPUTS.mkdir(exist_ok=True)
    first = {}
    for hosts in range(4, 11):
        doc, outcome, xml = core.cold_satisfy(hosts)
        problems = core.goal_problems(outcome.solutions[0], doc)
        if problems:
            raise RuntimeError(f"h{hosts}: first solution invalid: {problems}")
        first[str(hosts)] = core.digest(xml)
        if hosts in (6, 8):
            (core.INPUTS / f"randc-h{hosts}.xml").write_bytes(xml)
        print(f"h{hosts}: {outcome.stats.nodes} nodes", file=sys.stderr)

    dep = core.Deployment8()
    traces, failing = {}, []
    for episode in dep.episodes:
        result = core.run_episode(dep, episode)
        traces[episode.name] = result.trace_digest
        if result.problems:
            failing.append(episode.name)

    golden = {
        "first_solution": first,
        "episode_trace": traces,
        "known_failing_episodes": failing,
        "known_failing_count": len(failing),
        "serve_satisfy": core.digest(serve.local_satisfy_answer()),
    }
    core.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True)
                                + "\n")
    print(f"{len(failing)} of {len(dep.episodes)} episodes fail: "
          + ", ".join(failing), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
