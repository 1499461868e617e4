from __future__ import annotations

from configparser import ConfigParser
from pathlib import Path

import pytest

from cartierlab.cli import main
from cartierlab.corpus import corpus_path
from cartierlab.errors import InputError
from cartierlab.extensions import Hints
from cartierlab.extfile import (
    detect_kind, load_extension, load_rank_data, load_ring, read_description,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the property test below skips
    st = None


def write(tmp_path, text, name="input.ext"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """\
[ring.A]
field = QQ
vars = x
relations =

[ring.B]
field = QQ
vars = x
relations =

[map]
x = x
"""


def test_minimal_extension_loads(tmp_path):
    ext = load_extension(write(tmp_path, MINIMAL))
    assert ext.a_ring.variables == ("x",)
    assert detect_kind(write(tmp_path, MINIMAL)) == "extension"


def test_missing_section(tmp_path):
    with pytest.raises(InputError) as err:
        load_extension(write(tmp_path, MINIMAL.replace("[map]\nx = x\n", "")))
    assert "missing sections" in str(err.value)


def test_map_must_cover_variables(tmp_path):
    text = MINIMAL.replace("[map]\nx = x", "[map]\nx = x\ny = x")
    with pytest.raises(InputError):
        load_extension(write(tmp_path, text))


def test_bad_field(tmp_path):
    with pytest.raises(InputError):
        load_extension(write(tmp_path, MINIMAL.replace("field = QQ", "field = RR", 1)))


def test_prime_field_roundtrip(tmp_path):
    text = MINIMAL.replace("field = QQ", "field = FP(7)")
    ext = load_extension(write(tmp_path, text))
    assert ext.a_ring.field.p == 7


def test_bad_fraction_syntax(tmp_path):
    text = MINIMAL + "\n[hints]\nbirational = true\nfractions = x - y | z\n"
    with pytest.raises(InputError) as err:
        load_extension(write(tmp_path, text))
    assert "fraction entries" in str(err.value)


def test_bad_boolean(tmp_path):
    text = MINIMAL + "\n[hints]\nfinite = maybe\n"
    with pytest.raises(InputError):
        load_extension(write(tmp_path, text))


@pytest.mark.parametrize("spelling", ["false", "no", "0"])
def test_false_spellings_of_a_hint(tmp_path, capsys, spelling):
    """Each false spelling loads as False, and the conductor route then
    names the hints it lacks."""
    ext = load_extension(write(tmp_path, MINIMAL + f"\n[hints]\nfinite = {spelling}\n"))
    assert ext.hints == Hints(finite=False)
    with open(corpus_path("node.ext"), encoding="utf-8") as handle:
        node = handle.read().replace("finite = true", f"finite = {spelling}")
    assert main(["li", write(tmp_path, node, "node.ext"), "--method", "conductor"]) == 0
    assert "  reason: conductor-square needs finite and birational hints\n" in capsys.readouterr().out


def test_negative_rank_hint(tmp_path):
    text = MINIMAL + "\n[hints]\nlpic_A_rank = -1\n"
    with pytest.raises(InputError):
        load_extension(write(tmp_path, text))


def test_rankdata_requires_exact_keys(tmp_path):
    good = "[rankdata]\nc_A = 1\nc_B = 1\nlpic_A = 0\nlpic_B = 0\nlpic_kernel = 0\n"
    rd = load_rank_data(write(tmp_path, good, "data.rankdata"))
    assert rd.c_A == 1
    with pytest.raises(InputError):
        load_rank_data(write(tmp_path, good + "extra = 2\n", "bad.rankdata"))
    # invariant violations surface as input errors
    bad = good.replace("c_A = 1", "c_A = 3")
    with pytest.raises(InputError):
        load_rank_data(write(tmp_path, bad, "bad2.rankdata"))


def test_ring_file(tmp_path):
    alg = load_ring(write(tmp_path, "[ring]\nfield = QQ\nvars = u\nrelations = u^2\n", "b.ring"))
    assert alg.dim == 2


def test_unknown_section(tmp_path):
    with pytest.raises(InputError):
        load_extension(write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))


def configparser_sections(text: str) -> dict:
    """The sections ConfigParser reads, configured as the loaders once used it."""
    parser = ConfigParser(delimiters=("=",), interpolation=None, comment_prefixes=("#",))
    parser.optionxform = str
    parser.read_string(text)
    return {name: dict(parser[name]) for name in parser.sections()}


DESCRIPTION_FILES = sorted(
    str(path)
    for folder in (Path(corpus_path("node.ext")).parent, Path(__file__).parent / "fixtures")
    for path in folder.iterdir()
    if path.suffix in (".ext", ".ring", ".rankdata")
)


@pytest.mark.parametrize("path", DESCRIPTION_FILES, ids=lambda p: Path(p).name)
def test_reader_matches_configparser_on_shipped_files(path):
    data, sections = read_description(path)
    assert sections == configparser_sections(data.decode("utf-8"))


if st is None:
    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_reader_matches_configparser_on_generated_texts():
        pass
else:
    _WORD = st.text(st.sampled_from("abxyz019 ^*+-/(),;:|.=_"), max_size=12)
    _INDENT = st.sampled_from([" ", "  ", "\t", "    "])
    _FILLER = st.one_of(st.just(""), st.tuples(st.sampled_from(["", " "]), _WORD).map(
        lambda iw: f"{iw[0]}#{iw[1]}"))
    _CONTINUATION = st.tuples(_INDENT, _WORD).map("".join)
    _ENTRY = st.tuples(
        st.sampled_from(["k", "field", "vars", "x", "A_1", "lpic.r"]),
        _WORD,
        st.lists(st.one_of(_FILLER, _CONTINUATION), max_size=3),
    )
    _SECTION = st.tuples(
        st.sampled_from(["a", "ring.A", "map", "hints", "x1"]),
        st.lists(_ENTRY, max_size=4, unique_by=lambda entry: entry[0]),
    )

    def _text(preamble, sections, end):
        lines = list(preamble)
        for name, entries in sections:
            lines.append(f"[{name}]")
            for key, first, rest in entries:
                lines += [f"{key} ={first}", *rest]
        return "\n".join(lines) + end

    _TEXT = st.builds(
        _text,
        st.lists(_FILLER, max_size=2),
        st.lists(_SECTION, min_size=1, max_size=3, unique_by=lambda section: section[0]),
        st.sampled_from(["", "\n", "\n\n"]),
    )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(text=_TEXT)
    def test_reader_matches_configparser_on_generated_texts(tmp_path_factory, text):
        """Blank lines, full-line comments, indented continuations and empty
        values read as ConfigParser reads them."""
        path = tmp_path_factory.getbasetemp() / "generated.ext"
        path.write_text(text, encoding="utf-8")
        assert read_description(str(path))[1] == configparser_sections(text)


@pytest.mark.parametrize("text, line, reason", [
    ("x = 1\n" + MINIMAL, 1, "text before the first [section] header"),
    ("# comment\n\n  field = QQ\n" + MINIMAL, 3, "text before the first [section] header"),
    (MINIMAL.replace("vars = x\nrelations =\n\n[ring.B]", "vars x\n\n[ring.B]"), 3,
     "expected 'key = value', found 'vars x'"),
    (MINIMAL.replace("[map]\n", "[map]\n= x\n"), 12,
     "no key before '=' in '= x'"),
    (MINIMAL.replace("[ring.B]\n", "[ring.B] extra\n"), 6,
     "expected 'key = value', found '[ring.B] extra'"),
    (MINIMAL + "\n[ring.A]\nfield = QQ\n", 14, "section [ring.A] appears twice"),
    (MINIMAL.replace("vars = x\n", "vars = x\nvars = y\n", 1), 4,
     "key 'vars' appears twice in [ring.A]"),
], ids=["text-before-header", "indented-key-before-header", "no-equals", "empty-key",
        "text-after-header", "duplicate-section", "duplicate-key"])
def test_malformed_file_names_path_and_line(capsys, tmp_path, text, line, reason):
    path = write(tmp_path, text)
    code = main(["check", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"input error: malformed description file {path}: line {line}: {reason}\n")


def test_trailing_comment_ends_a_value(tmp_path):
    text = MINIMAL.replace("field = QQ", "field = FP(7)   # a prime field").replace(
        "[map]\nx = x", "[map]  # one image per variable\nx = x^2 # squared")
    ext = load_extension(write(tmp_path, text))
    assert ext.a_ring.field.p == 7 and ext.b_ring.field.p == 7
    assert str(ext.images["x"]) == "x^2"


def test_default_is_an_ordinary_section(tmp_path):
    """[DEFAULT] names no defaults: it is one more section, and unknown."""
    with pytest.raises(InputError) as err:
        load_extension(write(tmp_path, "[DEFAULT]\nfield = QQ\n\n" + MINIMAL))
    assert str(err.value).endswith("input.ext: ['DEFAULT']")
