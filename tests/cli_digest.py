"""One digest of the CLI's reports on the shipped corpus.

Runs `cartierlab.cli.main` in process: `check`, `li`, `stalks --generic`,
`seminormal --bound 3` and `anodal --bound 2` on every `.ext` and
`.rankdata` file of the corpus, each in text and with `--json`, plus `units`
on both `.ring` files, `terms` and `corpus`. It prints one line: the number of calls
and a sha256 over each call's argv, exit code, stdout and stderr, with the
corpus directory written as `<corpus>`. Two checkouts that print the same
line give byte-identical reports on all of these calls.

Run it from a checkout; it imports the package from that checkout's `src/`:

    python tests/cli_digest.py [--records FILE]

With `--records FILE` it also writes every call to FILE as a JSON list of
{"argv", "code", "stdout", "stderr"} objects, the corpus directory again
written as `<corpus>`, so that two checkouts whose lines differ can be
compared call by call.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
FILE_COMMANDS = (["check"], ["li"], ["stalks", "--generic"], ["seminormal", "--bound", "3"],
                 ["anodal", "--bound", "2"])
UNITS = (("nil_base.ring", "3*t^-2 + 3*eps"), ("split_base.ring", "e*t^2 + 3 - 3*e"))
TERMS = ("1", "2", "5")


def corpus_argvs(corpus: str) -> list[list[str]]:
    """Every digested argv, with the corpus files given by full path."""
    files = sorted(n for n in os.listdir(corpus) if n.endswith((".ext", ".rankdata")))
    base = [cmd[:1] + [os.path.join(corpus, name)] + cmd[1:]
            for name in files for cmd in FILE_COMMANDS]
    base += [["units", "--base", os.path.join(corpus, ring), "--laurent", laurent]
             for ring, laurent in UNITS]
    base += [["terms", "--n", n] for n in TERMS]
    base.append(["corpus"])
    return [argv + fmt for argv in base for fmt in ([], ["--json"])]


def call_records(argvs: list[list[str]], corpus: str) -> list[dict]:
    """argv, exit code, stdout and stderr of each call, with `<corpus>` for
    the corpus directory."""
    from cartierlab.cli import main

    records = []
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        records.append({
            "argv": [a.replace(corpus, "<corpus>") for a in argv],
            "code": code,
            "stdout": out.getvalue().replace(corpus, "<corpus>"),
            "stderr": err.getvalue().replace(corpus, "<corpus>"),
        })
    return records


def digest(records: list[dict]) -> str:
    sha = hashlib.sha256()
    for r in records:
        record = "\0".join([" ".join(r["argv"]), str(r["code"]), r["stdout"], r["stderr"]])
        sha.update(record.encode("utf-8") + b"\0\0")
    return sha.hexdigest()


def run(records_path: str | None = None) -> str:
    os.environ.pop("CARTIERLAB_BUDGET", None)  # digest the default pair budget
    sys.path.insert(0, os.path.abspath(SRC))
    from cartierlab.corpus import corpus_path

    corpus = os.path.dirname(corpus_path("node.ext"))
    records = call_records(corpus_argvs(corpus), corpus)
    if records_path is not None:
        with open(records_path, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=1)
    return f"{len(records)} calls sha256:{digest(records)}"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", metavar="FILE", help="also write each call as JSON to FILE")
    print(run(parser.parse_args().records))
