"""Loading extension, rank-data, and ring description files.

Extension files carry sections [ring.A], [ring.B] (field, vars, relations),
[map] (one image per source variable), and an optional [hints] section.
Rank-data files carry a single [rankdata] section; ring files a [ring]
section. Unknown sections or keys are input errors.

The syntax, read line by line:

- `#` starts a comment, which runs to the end of the line;
- `[name]` opens the section `name`, and nothing but a comment may follow
  the `]`;
- `key = value` splits at the first `=`, and both sides are stripped;
- a line indented deeper than the line that opened the value continues it,
  joined with a newline; blank lines inside a value are kept, trailing ones
  are not.

Text before the first header, a line without `=`, an empty key, a section
given twice and a key given twice in one section are input errors that name
the path and the line.

`read_description` reads a file once, as bytes and parsed sections
({section: {key: value}}); every loader takes the path and, optionally,
those sections, so a caller that needs the bytes too (the CLI's input
digest) never reads the file twice.
"""

from __future__ import annotations

import dataclasses
import re

from .artinian import FiniteAlgebra
from .cartier import RankData
from .errors import (CartierlabError, InputError, InvariantViolation, NotZeroDimensional,
                     ParseError, ZeroRingError)
from .extensions import ExtensionPresentation, Hints
from .polycore import GREVLEX, Ideal, PolyRing, PrimeField, QQ, parse_polynomial

_FIELD_RE = re.compile(r"^FP\((\d+)\)$")

_RING_KEYS = {"field", "vars", "relations"}
_HINT_KEYS = {f.name for f in dataclasses.fields(Hints)}
_RANKDATA_KEYS = {"c_A", "c_B", "lpic_A", "lpic_B", "lpic_kernel"}


def read_description(path: str) -> tuple[bytes, dict[str, dict[str, str]]]:
    """The bytes of a description file and its sections, read once.

    The sections come back as {section: {key: value}} in file order. A file
    that cannot be read, is not UTF-8 text or breaks the syntax in the module
    docstring is an input error.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text ({exc})") from None
    return data, _read_sections(text, path)


def _read_sections(text: str, path: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, list[str]]] = {}
    name = None
    value = None  # the lines of the value that deeper-indented lines continue
    indent = 0  # of the last line that continued no value
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for number, raw in enumerate(lines, 1):
        line, comment, _ = raw.partition("#")
        stripped = line.strip()
        if not stripped:
            if value is not None and not comment:
                value.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if value is not None and depth > indent:
            value.append(stripped)
            continue
        indent, value = depth, None
        if stripped[0] == "[" and stripped[-1] == "]" and len(stripped) > 2:
            name = stripped[1:-1]
            if name in sections:
                raise _malformed(path, number, f"section [{name}] appears twice")
            sections[name] = {}
            continue
        if name is None:
            raise _malformed(path, number, "text before the first [section] header")
        key, equals, rest = stripped.partition("=")
        key = key.rstrip()
        if not equals:
            raise _malformed(path, number, f"expected 'key = value', found {stripped!r}")
        if not key:
            raise _malformed(path, number, f"no key before '=' in {stripped!r}")
        if key in sections[name]:
            raise _malformed(path, number, f"key {key!r} appears twice in [{name}]")
        value = sections[name][key] = [rest.lstrip()]
    return {
        section: {key: "\n".join(parts).rstrip() for key, parts in keys.items()}
        for section, keys in sections.items()
    }


def _malformed(path: str, number: int, reason: str) -> InputError:
    return InputError(f"malformed description file {path}: line {number}: {reason}")


def _sections(path: str, description: dict | None) -> dict[str, dict[str, str]]:
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


def _parse(text: str, ring: PolyRing, what: str):
    """The polynomial that text denotes in ring; a ParseError becomes the
    InputError that names what was read."""
    try:
        return parse_polynomial(text, ring)
    except ParseError as exc:
        raise InputError(f"{what}: {exc}") from None


def _parse_ring(section, label: str) -> Ideal:
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
    return Ideal(ring, [_parse(text, ring, f"[{label}] relation {text!r}")
                        for text in _split_list(section.get("relations", ""))])


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
    for key in ("finite", "birational"):
        if key in section:
            kwargs[key] = _parse_bool(section[key], key)
    if "module_generators" in section:
        kwargs["module_generators"] = tuple(
            _parse(text, b_ring, f"module generator {text!r}")
            for text in _split_list(section["module_generators"]))
    if "fractions" in section:
        triples = []
        for entry in section["fractions"].split(";"):
            entry = entry.strip()
            if not entry:
                continue
            gen_text, colon, frac_text = entry.partition(":")
            num_text, bar, den_text = frac_text.partition("|")
            if not (colon and bar):
                raise InputError(
                    f"fraction entries look like 'generator : numerator | "
                    f"denominator', found {entry!r}"
                )
            what = f"fraction entry {entry!r}"
            triples.append((_parse(gen_text.strip(), b_ring, what),
                            _parse(num_text.strip(), a_ring, what),
                            _parse(den_text.strip(), a_ring, what)))
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
    path: str, assume_injective: bool = False, description: dict | None = None,
) -> ExtensionPresentation:
    description = _sections(path, description)
    sections = set(description)
    required = {"ring.A", "ring.B", "map"}
    if not required <= sections:
        raise InputError(f"{path} is missing sections {sorted(required - sections)}")
    unknown = sections - (required | {"hints"})
    if unknown:
        raise InputError(f"unknown sections in {path}: {sorted(unknown)}")
    a_ideal = _parse_ring(description["ring.A"], "ring.A")
    b_ideal = _parse_ring(description["ring.B"], "ring.B")
    a_ring, b_ring = a_ideal.ring, b_ideal.ring
    if a_ring.field != b_ring.field:
        raise InputError(f"[ring.A] is over {a_ring.field.describe()} but [ring.B] over "
                         f"{b_ring.field.describe()}: they must share a coefficient field")
    image_section = description["map"]
    if set(image_section) != set(a_ring.variables):
        raise InputError(
            "[map] must give exactly one image per source variable; "
            f"expected {sorted(a_ring.variables)}, found {sorted(image_section)}"
        )
    images = {name: _parse(image_section[name], b_ring, f"image of {name!r}")
              for name in a_ring.variables}
    hints = (
        _parse_hints(description["hints"], a_ring, b_ring)
        if "hints" in description else Hints()
    )
    return ExtensionPresentation(
        a_ring, a_ideal, b_ideal, images, hints, assume_injective=assume_injective,
    )


def load_rank_data(path: str, description: dict | None = None) -> RankData:
    description = _sections(path, description)
    if list(description) != ["rankdata"]:
        raise InputError(f"{path} must contain exactly the [rankdata] section")
    section = description["rankdata"]
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


def load_ring(path: str, description: dict | None = None) -> FiniteAlgebra:
    description = _sections(path, description)
    if list(description) != ["ring"]:
        raise InputError(f"{path} must contain exactly the [ring] section")
    ideal = _parse_ring(description["ring"], "ring")
    try:
        return FiniteAlgebra(ideal)
    except (NotZeroDimensional, ZeroRingError) as exc:
        raise InputError(f"[ring] of {path} is not a nonzero finite-dimensional "
                         f"algebra: {exc}") from None


def detect_kind(path: str, description: dict | None = None) -> str:
    """'extension', 'rankdata', or 'ring', from the section structure."""
    sections = set(_sections(path, description))
    if "rankdata" in sections:
        return "rankdata"
    if "ring" in sections:
        return "ring"
    return "extension"
