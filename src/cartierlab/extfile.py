"""Loading extension, rank-data, and ring description files.

Extension files carry sections [ring.A], [ring.B] (field, vars, relations),
[map] (one image per source variable), and an optional [hints] section.
Rank-data files carry a single [rankdata] section; ring files a [ring]
section. Unknown sections or keys are input errors.

`read_description` reads a file once, as bytes and parsed sections; every
loader takes the path and, optionally, those sections, so a caller that
needs the bytes too (the CLI's input digest) never reads the file twice.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import re
from configparser import ConfigParser

from .artinian import FiniteAlgebra
from .cartier import RankData
from .errors import CartierlabError, InputError, InvariantViolation, ParseError
from .extensions import ExtensionPresentation, Hints
from .polycore import GREVLEX, Ideal, PolyRing, PrimeField, QQ, parse_polynomial

_FIELD_RE = re.compile(r"^FP\((\d+)\)$")

_RING_KEYS = {"field", "vars", "relations"}
_HINT_KEYS = {f.name for f in dataclasses.fields(Hints)}
_RANKDATA_KEYS = {"c_A", "c_B", "lpic_A", "lpic_B", "lpic_kernel"}


def read_description(path: str) -> tuple[bytes, ConfigParser]:
    """The bytes of a description file and their parsed sections, read once.

    A file that cannot be read or is not UTF-8 text is an input error.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    parser = ConfigParser(
        delimiters=("=",), interpolation=None, comment_prefixes=("#",)
    )
    parser.optionxform = str
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    try:
        parser.read_file(io.StringIO(text, newline=None), source=path)
    except configparser.Error as exc:
        raise InputError(f"malformed description file {path}: {exc}") from None
    return data, parser


def _sections(path: str, description: ConfigParser | None) -> ConfigParser:
    return read_description(path)[1] if description is None else description


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_field(text: str, label: str):
    text = text.strip()
    if text == "QQ":
        return QQ
    match = _FIELD_RE.match(text)
    if match:
        try:
            return PrimeField(int(match.group(1)))
        except CartierlabError as exc:
            raise InputError(f"[{label}] field: {exc}") from None
    raise InputError(f'field must be "QQ" or "FP(p)", found {text!r}')


def _parse_ring(section, label: str) -> tuple[PolyRing, Ideal]:
    unknown = set(section) - _RING_KEYS
    if unknown:
        raise InputError(f"unknown keys in [{label}]: {sorted(unknown)}")
    if "field" not in section or "vars" not in section:
        raise InputError(f"[{label}] needs the keys field and vars")
    field = _parse_field(section["field"], label)
    try:
        ring = PolyRing(field, _split_list(section["vars"]), GREVLEX)
    except CartierlabError as exc:
        raise InputError(f"[{label}] vars: {exc}") from None
    relations = []
    for text in _split_list(section.get("relations", "")):
        try:
            relations.append(parse_polynomial(text, ring))
        except ParseError as exc:
            raise InputError(f"[{label}] relation {text!r}: {exc}") from None
    return ring, Ideal(ring, relations)


def _parse_bool(text: str, key: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise InputError(f"{key} must be a boolean, found {text!r}")


def _parse_hints(section, a_ring: PolyRing, b_ring: PolyRing) -> Hints:
    unknown = set(section) - _HINT_KEYS
    if unknown:
        raise InputError(f"unknown keys in [hints]: {sorted(unknown)}")
    kwargs: dict = {}
    if "finite" in section:
        kwargs["finite"] = _parse_bool(section["finite"], "finite")
    if "birational" in section:
        kwargs["birational"] = _parse_bool(section["birational"], "birational")
    if "module_generators" in section:
        gens = []
        for text in _split_list(section["module_generators"]):
            try:
                gens.append(b_ring.parse(text))
            except ParseError as exc:
                raise InputError(f"module generator {text!r}: {exc}") from None
        kwargs["module_generators"] = tuple(gens)
    if "fractions" in section:
        triples = []
        for entry in section["fractions"].split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if ":" not in entry or "|" not in entry:
                raise InputError(
                    f"fraction entries look like 'generator : numerator | "
                    f"denominator', found {entry!r}"
                )
            gen_text, frac_text = entry.split(":", 1)
            num_text, den_text = frac_text.split("|", 1)
            try:
                gen = b_ring.parse(gen_text.strip())
                num = a_ring.parse(num_text.strip())
                den = a_ring.parse(den_text.strip())
            except ParseError as exc:
                raise InputError(f"fraction entry {entry!r}: {exc}") from None
            triples.append((gen, num, den))
        kwargs["fractions"] = tuple(triples)
    for key in ("lpic_A_rank", "lpic_B_rank", "lpic_kernel_rank"):
        if key in section:
            try:
                value = int(section[key])
            except ValueError:
                raise InputError(f"{key} must be an integer") from None
            if value < 0:
                raise InputError(f"{key} must be nonnegative")
            kwargs[key] = value
    return Hints(**kwargs)


def load_extension(
    path: str, assume_injective: bool = False, description: ConfigParser | None = None,
) -> ExtensionPresentation:
    parser = _sections(path, description)
    sections = set(parser.sections())
    required = {"ring.A", "ring.B", "map"}
    if not required <= sections:
        raise InputError(f"{path} is missing sections {sorted(required - sections)}")
    unknown = sections - (required | {"hints"})
    if unknown:
        raise InputError(f"unknown sections in {path}: {sorted(unknown)}")
    a_ring, a_ideal = _parse_ring(parser["ring.A"], "ring.A")
    b_ring, b_ideal = _parse_ring(parser["ring.B"], "ring.B")
    if a_ring.field != b_ring.field:
        raise InputError(f"[ring.A] is over {a_ring.field.describe()} but [ring.B] over "
                         f"{b_ring.field.describe()}: they must share a coefficient field")
    image_section = parser["map"]
    if set(image_section) != set(a_ring.variables):
        raise InputError(
            "[map] must give exactly one image per source variable; "
            f"expected {sorted(a_ring.variables)}, found {sorted(image_section)}"
        )
    images = {}
    for name in a_ring.variables:
        try:
            images[name] = b_ring.parse(image_section[name])
        except ParseError as exc:
            raise InputError(f"image of {name!r}: {exc}") from None
    hints = (
        _parse_hints(parser["hints"], a_ring, b_ring) if "hints" in parser else Hints()
    )
    return ExtensionPresentation(
        a_ring, a_ideal, b_ring, b_ideal, images, hints,
        assume_injective=assume_injective,
    )


def load_rank_data(path: str, description: ConfigParser | None = None) -> RankData:
    parser = _sections(path, description)
    if parser.sections() != ["rankdata"]:
        raise InputError(f"{path} must contain exactly the [rankdata] section")
    section = parser["rankdata"]
    if set(section) != _RANKDATA_KEYS:
        raise InputError(
            f"[rankdata] needs exactly the keys {sorted(_RANKDATA_KEYS)}"
        )
    try:
        values = {k: int(section[k]) for k in _RANKDATA_KEYS}
    except ValueError:
        raise InputError("[rankdata] entries must be integers") from None
    try:
        return RankData(**values)
    except InvariantViolation as exc:
        raise InputError(str(exc)) from None


def load_ring(path: str, description: ConfigParser | None = None) -> FiniteAlgebra:
    parser = _sections(path, description)
    if parser.sections() != ["ring"]:
        raise InputError(f"{path} must contain exactly the [ring] section")
    ring, ideal = _parse_ring(parser["ring"], "ring")
    return FiniteAlgebra(ring, ideal)


def detect_kind(path: str, description: ConfigParser | None = None) -> str:
    """'extension', 'rankdata', or 'ring', from the section structure."""
    sections = set(_sections(path, description).sections())
    if "rankdata" in sections:
        return "rankdata"
    if "ring" in sections:
        return "ring"
    return "extension"
