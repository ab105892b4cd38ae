"""Golden outputs: workload digests per seed, and the README CLI commands'
JSON without its volatile ``timestamp``.  Started by ``run.py``.

    goldens.py check    diff the CLI commands against their goldens
    goldens.py record   rewrite every golden from the current code
"""

import contextlib
import difflib
import io
import json
import sys
from pathlib import Path

from hermvar import cli

import workloads as wl

HERE = Path(__file__).resolve().parent
CLI_DIR = HERE / "goldens" / "cli"
OUT = HERE / "out"
GOLDEN_TEXT_LIMIT = 64 * 1024
# seeded workloads have a digest for each of these seeds
GOLDEN_SEEDS = range(12)

CLI_COMMANDS = {
    "count_q2_n4": ["count", "--q", "2", "--n", "4"],
    "count_q2_n4_rank3": ["count", "--q", "2", "--n", "4", "--rank", "3"],
    "verify_sequences_q2_n12": ["verify", "--suite", "sequences", "--q", "2", "--n", "12"],
    "verify_extremal_q2_n5": ["verify", "--suite", "extremal", "--q", "2", "--n", "5"],
    "verify_incidence_q2_n4": ["verify", "--suite", "incidence", "--q", "2", "--n", "4"],
    "search_triples_q2_n4": [
        "search", "--q", "2", "--n", "4", "--mode", "triples", "--output", "report.json",
    ],
    "search_random_q7_n4": [
        "search", "--q", "7", "--n", "4", "--mode", "random", "--trials", "200",
        "--seed", "1", "--workers", "2",
    ],
}


def run_cli(argv):
    """(exit code, stdout JSON without timestamp) of one CLI command; an
    ``--output`` file goes to perfbench/out and must equal stdout."""
    argv = list(argv)
    out_file = None
    if "--output" in argv:
        i = argv.index("--output") + 1
        OUT.mkdir(exist_ok=True)
        out_file = OUT / f"cli-{argv[i]}"
        argv[i] = str(out_file)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    if out_file is not None and out_file.read_text() != text:
        raise SystemExit(f"{argv}: --output file differs from stdout")
    doc = json.loads(text)
    doc.pop("timestamp")
    return code, json.dumps(doc, sort_keys=True, indent=2) + "\n"


def check_cli():
    failed = []
    for name, argv in CLI_COMMANDS.items():
        golden = json.loads((CLI_DIR / f"{name}.json").read_text())
        code, text = run_cli(argv)
        if code != golden["exit"] or wl.digest(text) != golden["sha256"]:
            failed.append(name)
            print(f"{name}: exit {code} (golden {golden['exit']})", file=sys.stderr)
            if "output" in golden:
                want = json.dumps(golden["output"], sort_keys=True, indent=2)
                diff = difflib.unified_diff(
                    want.splitlines(), text.splitlines(), "golden", "now", lineterm=""
                )
                print("\n".join(list(diff)[:40]), file=sys.stderr)
        print(f"{name:28s} {'differs' if name in failed else 'same'}")
    if failed:
        raise SystemExit(f"CLI output differs from golden: {', '.join(failed)}")


def cli_golden(argv, code, text):
    """Exit code and digest of one command; the JSON itself too unless it is
    larger than GOLDEN_TEXT_LIMIT bytes."""
    doc = {"argv": argv, "exit": code, "sha256": wl.digest(text)}
    if len(text) <= GOLDEN_TEXT_LIMIT:
        doc["output"] = json.loads(text)
    return doc


def record():
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    for name, argv in CLI_COMMANDS.items():
        code, text = run_cli(argv)
        doc = cli_golden(argv, code, text)
        (CLI_DIR / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{name:28s} exit {code}")
    goldens = {}
    for w in wl.WORKLOADS.values():
        digests = goldens.setdefault(w.name, {})
        for seed in GOLDEN_SEEDS if w.seeded else [0]:
            text, facts = w.run(seed, wl.pool_workers())
            errors = w.check(facts)
            if errors:
                raise SystemExit(f"{w.name} seed {seed} fails its checks: {errors}")
            digests[wl.golden_key(w, seed)] = wl.digest(text)
            print(f"{w.name:16s} seed {seed:3d} {digests[wl.golden_key(w, seed)]}")
    wl.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


def main(argv):
    if argv[0] == "record":
        record()
    else:
        check_cli()


if __name__ == "__main__":
    main(sys.argv[1:])
