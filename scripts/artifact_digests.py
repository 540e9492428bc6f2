"""SHA-256 digests of the artifacts that ``hampath solve`` writes for every example config.

Each ``configs/*.yaml`` is solved into a temporary directory and one line is
printed per written file (``<sha256>  <config>/<artifact>``), followed by the
exit code.  The source tree next to this script is imported, so running it in
two checkouts and diffing the outputs shows whether a change keeps the
artifacts byte-identical.

Run:  python scripts/artifact_digests.py
"""

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


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in sorted((ROOT / "configs").glob("*.yaml")):
            out = Path(tmp) / cfg.stem
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
