"""Regenerate the cluster-routing golden file (see tests/helpers_golden.py).

Usage::

    PYTHONPATH=src python tests/capture_cluster_goldens.py [--combo | --tokens]

The committed golden pins every routing policy -- checkpoint migration
included -- on 2/4/8-device clusters with rotating device schedulers.
``--combo`` instead writes the feature-combination golden (migration,
proactive churn, admission and sharded batching on one 4-device fleet);
``--tokens`` writes the token-read golden (PREMA/TOKEN rows whose exact
token counts order evacuations and migrations).
Regenerating either is only justified alongside an intentional,
documented behavioral change.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import helpers_golden  # noqa: E402


def main() -> None:
    start = time.perf_counter()
    if "--combo" in sys.argv[1:]:
        payload = helpers_golden.capture_combo()
        path = helpers_golden.write_cluster_goldens(
            payload, helpers_golden.COMBO_GOLDEN_PATH
        )
    elif "--tokens" in sys.argv[1:]:
        payload = helpers_golden.capture_token_reads()
        path = helpers_golden.write_cluster_goldens(
            payload, helpers_golden.TOKEN_GOLDEN_PATH
        )
    else:
        payload = helpers_golden.capture_cluster()
        path = helpers_golden.write_cluster_goldens(payload)
    elapsed = time.perf_counter() - start
    print(
        f"wrote {len(payload['runs'])} cluster golden runs to {path} "
        f"in {elapsed:.1f}s"
    )


if __name__ == "__main__":
    main()
