"""Golden CLI transcript: stdout, stderr and exit code of a fixed set of
commands on the fixture files, compared with `tests/data/cli_transcript.txt`.

The commands run `capstar.cli.main` in-process on the files that
`scripts/write_fixture_files.py` writes, plus the cochain, chain and
support files of the README `cap` example. The temporary directory is
replaced by a fixed token.

To rewrite the golden file after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

import contextlib
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

from capstar.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "cli_transcript.txt"
TOKEN = "<DIR>"

COMPLEXES = [
    "circle", "sphere", "torus7", "rp2", "klein", "moebius",
    "interval", "disk2", "disk3", "cylinder",
]
PAIRS = ["interval", "disk2", "disk3", "cylinder"]

EXTRA_FILES = {
    "u.json": {"degree": 1, "values": {"1,2": 1}},
    "a.json": {"degree": 1, "values": {"1,2": 1, "2,3": 1, "1,3": -1}},
    "z.json": {"name": "z", "simplices": [[1]]},
    "z-all.json": {"name": "z-all", "simplices": [[1], [2], [3]]},
    "rel-u.json": {"degree": 1, "values": {"a,m": 1}},
    "rel-a.json": {"degree": 1, "values": {"a,m": 1, "b,m": -1}},
    "rel-z.json": {"name": "mid", "simplices": [["m"]]},
}


def _commands(d):
    cmds = []
    for name in COMPLEXES:
        cmds.append(["homology", f"{d}/{name}.json"])
        cmds.append(["verify", f"{d}/{name}.json", "--trials", "20", "--seed", "1"])
    for name in PAIRS:
        rel = ["homology", f"{d}/{name}.json", "--rel", f"{d}/{name}-boundary.json"]
        cmds += [rel, rel + ["--bm"]]
    cap = ["cap", f"{d}/circle.json", "--cochain", f"{d}/u.json", "--chain", f"{d}/a.json"]
    cmds.append(cap + ["--support", f"{d}/z.json"])
    cmds.append(cap + ["--support", f"{d}/z.json", "--presubdivide", "2"])
    cmds.append(cap + ["--support", f"{d}/z-all.json"])
    cmds.append([
        "cap", f"{d}/interval.json", "--cochain", f"{d}/rel-u.json",
        "--chain", f"{d}/rel-a.json", "--support", f"{d}/rel-z.json",
        "--rel", f"{d}/interval-boundary.json",
    ])
    return cmds


def transcript(d: Path) -> str:
    """Write the input files into `d`, run every command, and return the
    transcript with `d` replaced by the token."""
    argv = sys.argv
    sys.argv = ["write_fixture_files.py", str(d)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "scripts" / "write_fixture_files.py"), run_name="__main__")
    finally:
        sys.argv = argv
    for fname, payload in EXTRA_FILES.items():
        (d / fname).write_text(json.dumps(payload))
    blocks = []
    for cmd in _commands(str(d)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(cmd)
        blocks.append(
            f"$ capstar {' '.join(cmd)}\nexit {code}\n"
            f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        )
    return "".join(blocks).replace(str(d), TOKEN)


def test_cli_transcript_matches_golden_file(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(Path(d)))
    print(f"wrote {GOLDEN}")
