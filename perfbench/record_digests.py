#!/usr/bin/env python3
"""Record the sha256 of the stdout of each request in the digest corpus.

    python3 perfbench/record_digests.py

Run from the root of a source checkout.  The benchmark's traced run counts
requests whose output no longer matches (``cli.output_digest_mismatches``):
CLI reports are meant to stay byte-identical, so record again only when an
output change is intended.
"""

import hashlib
import json
import os
import sys
import tempfile

from run import HERE, load_program
from workloads import digest_corpus, digest_key, run_cli


def main() -> int:
    mods = load_program()
    digests = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for k, (cmd, alg) in enumerate(digest_corpus()):
            path = os.path.join(tmp, f"digest-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(alg.doc(), fh)
            code, text = run_cli(mods.cli, [cmd, "--input", path])
            if code != 0:
                sys.exit(f"{digest_key(cmd, alg)} exited {code}")
            digests[digest_key(cmd, alg)] = hashlib.sha256(text.encode()).hexdigest()
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
