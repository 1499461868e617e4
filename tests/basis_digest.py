"""One digest of every reduced basis that the CLI digest's calls compute.

Replays the call list of `tests/cli_digest.py` in process with
`cartierlab.polycore.groebner.buchberger` wrapped, and prints one line: the
number of Buchberger runs and a sha256 over each run's ring, monomial order,
generators and reduced basis, in call order. A run that raises is hashed
with the exception's name in place of the basis. Polynomials are hashed as
their exact term lists, so two checkouts that print the same line computed
the same bases, element for element and in the same order, on all of these
calls.

Run it from a checkout; it imports the package from that checkout's `src/`:

    python tests/basis_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys

import cli_digest


def _terms(poly) -> str:
    return repr(sorted(poly.terms().items()))


def run() -> str:
    os.environ.pop("CARTIERLAB_BUDGET", None)  # digest the default pair budget
    sys.path.insert(0, os.path.abspath(cli_digest.SRC))
    from cartierlab.corpus import corpus_path
    from cartierlab.polycore import groebner

    sha = hashlib.sha256()
    runs = 0
    original = groebner.buchberger

    def traced(generators, ring, *args, **kwargs):
        nonlocal runs
        record = [ring.describe(), repr(ring.order)] + [_terms(g) for g in generators]
        try:
            basis = original(generators, ring, *args, **kwargs)
        except Exception as exc:
            record.append(type(exc).__name__)
            raise
        else:
            record += ["->"] + [_terms(g) for g in basis]
            return basis
        finally:
            runs += 1
            sha.update("\0".join(record).encode("utf-8") + b"\0\0")

    corpus = os.path.dirname(corpus_path("node.ext"))
    groebner.buchberger = traced
    try:
        cli_digest.call_records(cli_digest.corpus_argvs(corpus), corpus)
    finally:
        groebner.buchberger = original
    return f"{runs} runs sha256:{sha.hexdigest()}"


if __name__ == "__main__":
    print(run())
