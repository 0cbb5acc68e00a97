"""Generate and persist the ``paper_restudy`` corpora.

Usage: ``python perfbench/make_corpora.py <seed> <out-dir> <kind>...``

For each ``kind`` (``korean``, ``ladygaga``) builds the dataset `repro
study --seed <seed> --dataset <kind>` would build, saves it with
``UserStore.save``/``TweetStore.save`` as ``<out-dir>/<kind>-users.jsonl``
and ``<out-dir>/<kind>-tweets.jsonl``, and studies it before it is
persisted.  Prints one JSON line: ``setup_s``, the seconds generation plus
persistence took, and ``digests``, each study's digest by kind.

The benchmark runs this in a process of its own, so that the generated
corpora never count towards the benchmark process's peak memory.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_program  # noqa: E402


def main(argv: list[str]) -> int:
    seed, out, kinds = argv[0], Path(argv[1]), argv[2:]
    require_program()
    from repro import cli
    from repro.analysis.correlation import run_study
    from repro.analysis.serialization import study_digest

    setup_s = 0.0
    digests = {}
    for kind in kinds:
        start = time.perf_counter()
        args = cli.build_parser().parse_args(
            ["study", "--seed", seed, "--dataset", kind])
        dataset = cli._build_dataset(args)
        dataset.users.save(out / f"{kind}-users.jsonl")
        dataset.tweets.save(out / f"{kind}-tweets.jsonl")
        setup_s += time.perf_counter() - start
        study = run_study(dataset.users, dataset.tweets, dataset.gazetteer,
                          dataset_name=kind)
        digests[kind] = study_digest(study)
        del dataset, study
    print(json.dumps({"setup_s": setup_s, "digests": digests}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
