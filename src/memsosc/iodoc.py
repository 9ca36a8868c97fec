"""Structured text documents and CSV emission.

Documents are flat ``key = value`` files with ``#`` comments; numeric
values use engineering notation (``c0 = 16f``).  The same format carries
resonators, compensation networks and design specs, discriminated by the
keys present.
"""

from __future__ import annotations

import cmath
import math
import os
import tempfile
from pathlib import Path

from .bvd import ComplexResponse, Resonator
from .compensation import CompensationNetwork
from .design import DesignReport, DesignSpec
from .engnotation import EngNotationError, format_eng, parse_eng

FIXTURE_DIR_ENV = "MEMSOSC_FIXTURE_DIR"

RESPONSE_CSV_HEADER = "freq_hz,re_ohm,im_ohm,mag_ohm,phase_deg"


class DocumentError(ValueError):
    """Malformed key/value document."""


def parse_document(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or line.startswith("*"):
            continue
        if "=" not in line:
            raise DocumentError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise DocumentError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_document(path) -> dict[str, str]:
    return parse_document(Path(path).read_text())


def _num(doc: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in doc:
        if default is not None:
            return default
        raise DocumentError(f"missing required key {key!r}")
    try:
        return parse_eng(doc[key])
    except EngNotationError as exc:
        raise DocumentError(f"key {key!r}: {exc}") from exc


def _count(doc: dict[str, str], key: str) -> int:
    value = _num(doc, key, 0.0)
    if value != int(value):
        raise DocumentError(f"key {key!r}: expected an integer, got {doc[key]!r}")
    return int(value)


def resonator_from_document(doc: dict[str, str], label: str = "") -> Resonator:
    return Resonator(
        r_m=_num(doc, "rm"),
        l_m=_num(doc, "lm"),
        c_m=_num(doc, "cm"),
        c_0=_num(doc, "c0"),
        label=doc.get("label", label),
    )


def network_from_document(doc: dict[str, str]) -> CompensationNetwork:
    # the series variant is not modelled; refuse it rather than read it as shunt
    if doc.get("topology", "shunt") != "shunt":
        raise DocumentError(f"key 'topology': only 'shunt' is supported, "
                            f"got {doc['topology']!r}")
    return CompensationNetwork(
        l_0=_num(doc, "l0"),
        q_l0=_num(doc, "q_l0"),
        f_ref=_num(doc, "f_ref"),
        c_fix=_num(doc, "c_fix", 0.0),
        bank_unit=_num(doc, "bank_unit", 0.0),
        bank_size=_count(doc, "bank_size"),
        bank_code=_count(doc, "bank_code"),
    )


def _resolve(kind: str, name_or_path: str, builtins: dict, suffix: str, load):
    """A built-in fixture, else the first file among the path itself and,
    under $MEMSOSC_FIXTURE_DIR, the name and the name plus suffix."""
    if name_or_path in builtins:
        return builtins[name_or_path]
    candidates = [Path(name_or_path)]
    fixture_dir = os.environ.get(FIXTURE_DIR_ENV)
    if fixture_dir:
        candidates.append(Path(fixture_dir) / name_or_path)
        candidates.append(Path(fixture_dir) / f"{name_or_path}{suffix}")
    for path in candidates:
        if path.is_file():
            return load(path)
    raise DocumentError(
        f"unknown {kind} {name_or_path!r}: not a built-in fixture "
        f"({', '.join(sorted(builtins))}) and no such file")


def resolve_resonator(name_or_path: str) -> Resonator:
    """A built-in fixture name, a file path, or a name in $MEMSOSC_FIXTURE_DIR."""
    from .fixtures import BUILTIN_RESONATORS

    return _resolve("resonator", name_or_path, BUILTIN_RESONATORS, ".dev",
                    lambda path: resonator_from_document(load_document(path),
                                                         label=path.stem))


def resolve_network(name_or_path: str) -> CompensationNetwork:
    """A built-in fixture name, a file path, or a name in $MEMSOSC_FIXTURE_DIR."""
    from .fixtures import BUILTIN_NETWORKS

    return _resolve("network", name_or_path, BUILTIN_NETWORKS, ".net",
                    lambda path: network_from_document(load_document(path)))


def designspec_from_document(doc: dict[str, str]) -> DesignSpec:
    if "resonator" in doc:
        resonator = resolve_resonator(doc["resonator"])
    else:
        resonator = resonator_from_document(doc)
    return DesignSpec(
        resonator=resonator,
        target_f0=_num(doc, "target_f0"),
        v_osc_target=_num(doc, "v_osc"),
        parasitic_c=_num(doc, "parasitic_c", 0.0),
        q_l0_available=_num(doc, "q_l0"),
        bank_unit=_num(doc, "bank_unit", 0.0),
        bank_size=_count(doc, "bank_size"),
        # a key left out takes DesignSpec's default
        **{field: _num(doc, key) for field, key in (
            ("c_fix", "c_fix"), ("mu_cox", "mu_cox"), ("gamma", "gamma"),
            ("temperature", "temperature"), ("supply", "supply"),
            ("pn_offset", "pn_offset"), ("l0_grid_step", "l0_grid")) if key in doc},
    )


# --- emission ------------------------------------------------------------

def atomic_write_text(path, text: str) -> None:
    """Write via a temp file in the destination directory plus rename; a
    failure leaves no temp file behind, and its OSError names `path`."""
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def response_csv(response: ComplexResponse) -> str:
    lines = [RESPONSE_CSV_HEADER]
    for f, z in zip(response.frequencies, response.values):
        z = complex(z)
        lines.append(f"{float(f)!r},{z.real!r},{z.imag!r},{abs(z)!r},"
                     f"{math.degrees(cmath.phase(z))!r}")
    lines.append("")  # the final newline, without a second copy of the text
    return "\n".join(lines)


def report_document(report: DesignReport) -> str:
    """DesignReport as a reparsable key/value document."""
    items = [
        ("l0", format_eng(report.l_0)),
        ("r_l0", format_eng(report.r_l0)),
        ("q_l0", format_eng(report.q_l0)),
        ("c_fix", format_eng(report.c_fix)),
        ("bank_code", str(report.bank_code)),
        ("bank_size", str(report.bank_size)),
        ("f_s", repr(report.f_s)),
        ("f_tank", repr(report.f_tank)),
        ("f_osc", repr(report.f_osc)),
        ("r_res", repr(report.r_res)),
        ("beta", repr(report.beta)),
        ("q_loaded", repr(report.q_loaded)),
        ("q_resonator", repr(report.q_resonator)),
        ("noise_factor", repr(report.noise_factor)),
        ("g_m", repr(report.g_m)),
        ("i_bias", repr(report.i_bias)),
        ("w_over_l", repr(report.w_over_l)),
        ("p_dc", repr(report.p_dc_estimate)),
        ("eta", repr(report.eta)),
        ("pn_dbchz", repr(report.predicted_pn)),
        ("pn_offset", repr(report.pn_offset)),
        ("fom_dbchz", repr(report.predicted_fom)),
    ]
    lines = [f"{k} = {v}" for k, v in items]
    for i, w in enumerate(report.warnings):
        lines.append(f"# warning[{i}]: {w}")
    return "\n".join(lines) + "\n"
