"""SHA-256 digests of the artifacts that ``hampath solve`` writes for every example config.

Each ``configs/*.yaml`` is solved into a temporary directory and one line is
printed per written file (``<sha256>  <config>/<artifact>``), followed by the
exit code.  The source tree next to this script is imported, so running it in
two checkouts and diffing the outputs shows whether a change keeps the
artifacts byte-identical.

With ``--keep DIR`` the artifacts are written to DIR/<config>/ and left there, so that a
moved digest line can be read back: the largest node difference and the
action before and after, from the kept trees of two checkouts.

Run:  python scripts/artifact_digests.py [--keep DIR]
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hampath.cli import main as hampath_main  # noqa: E402

ARTIFACTS = ("trajectory.csv", "report.txt", "residuals.csv")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="write the artifacts to DIR/<config>/ and leave them there")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((ROOT / "configs").glob("*.yaml")):
            out = Path(args.keep or tmp) / cfg.stem
            with contextlib.redirect_stdout(io.StringIO()):
                code = hampath_main(["solve", str(cfg), "--out", str(out)])
            for name in ARTIFACTS:
                path = out / name
                digest = "missing"
                if path.exists():
                    digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {cfg.name}/{name}")
            print(f"exit {code}  {cfg.name}")


if __name__ == "__main__":
    main()
