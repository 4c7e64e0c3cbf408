"""Layer parameter table for the LUT-tree matcher.

A tree is described by one row per layer, numbered 1 (symbol side) up to
L (top). Each LUT in layer l maps v_l input bits to u_l output bits. The
input of a non-top LUT is r_l bits received from its parent concatenated
with s_l fresh information bits; the top LUT receives s_L information bits
only. A layer-l LUT's output feeds its t_{l-1} children with r_{l-1} bits
each, so u_l = t_{l-1} * r_{l-1}; leaf outputs are shaped bits, two per
PAM symbol.

validate_tree is the constructor path: it checks every structural
invariant and computes the derived totals (information bits in, shaped
bits out, PAM symbols out). The modulation is fixed (see mapping): m and
m_sb must be BITS_PER_QAM and SHAPED_BITS_PER_QAM; they stay in the
config, the LUT-file header and the spec fingerprint. A LUT is at most
bits.MAX_SYMBOL_BITS wide, which bounds every table and candidate set at
2^16 entries, and a shaped word is at most MAX_WORD_BITS long, which
bounds the LUT count of every layer.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .bits import MAX_SYMBOL_BITS
from .mapping import BITS_PER_QAM, CLASS_BITS, SHAPED_BITS_PER_QAM

MAX_WORD_BITS = 1 << 16


class TreeConfigError(ValueError):
    """A layer table failed validation."""


class CouplingViolation(TreeConfigError):
    """A layer's output width does not equal fanin * parent_bits of the layer below."""


class CountViolation(TreeConfigError):
    """LUT counts are inconsistent with the fanin chain, or the word is longer than MAX_WORD_BITS."""


class WidthViolation(TreeConfigError):
    """A bit-width field is out of range or inconsistent (v != r + s, v > u, or u > MAX_SYMBOL_BITS)."""


class GranularityViolation(TreeConfigError):
    """Output widths do not divide into whole PAM/QAM symbols."""


@dataclass(frozen=True)
class LayerParams:
    """One row of the layer table.

    fanin and parent_bits are None exactly for the top layer, which has no
    parent and whose whole input is information bits (v = s).
    """

    layer_index: int
    lut_count: int
    info_bits: int
    in_bits: int
    out_bits: int
    fanin: int | None = None
    parent_bits: int | None = None


@dataclass(frozen=True)
class TreeSpec:
    """Validated layer table with derived totals.

    layers are ordered top-down: layers[0] is the top layer L, layers[-1]
    is layer 1. Instances are immutable and safe to share between workers.
    """

    layers: tuple[LayerParams, ...]
    n_info: int
    n_pam: int
    n_out: int

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def top(self) -> LayerParams:
        return self.layers[0]

    @property
    def leaf(self) -> LayerParams:
        return self.layers[-1]


# The one statement of the layer-row keys: each short config key, in the
# order rows are written, and the LayerParams field it fills.
_FIELD_FOR_KEY = {
    "l": "layer_index",
    "t": "fanin",
    "T": "lut_count",
    "r": "parent_bits",
    "s": "info_bits",
    "v": "in_bits",
    "u": "out_bits",
}


def _check_count(value: Any, name: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TreeConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise TreeConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _normalize_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """Turn an input row into {field: value or None} with unknown keys rejected."""
    if not isinstance(row, Mapping):
        raise TreeConfigError(f"layer row {row!r} is not an object")
    out: dict[str, Any] = {field: None for field in _FIELD_FOR_KEY.values()}
    for key, value in row.items():
        if key not in _FIELD_FOR_KEY:
            raise TreeConfigError(f"unknown layer field {key!r}")
        out[_FIELD_FOR_KEY[key]] = value
    return out


def validate_tree(
    raw_layers: Iterable[Mapping[str, Any]],
    m: int,
    m_sb: int,
) -> TreeSpec:
    """Validate a layer table and return the immutable TreeSpec.

    raw_layers may be given in any order; rows are mappings with the short
    keys l/t/T/r/s/v/u. T may be omitted (it is derived from the fanin
    chain); the top layer must omit t and r. Validation is deterministic,
    and re-validating spec_to_mappings of a returned spec yields an equal
    spec.
    """
    rows = [_normalize_row(r) for r in raw_layers]
    if not rows:
        raise TreeConfigError("layer table is empty")

    for row in rows:
        row["layer_index"] = _check_count(row["layer_index"], "layer index l", 1)
    rows.sort(key=lambda r: -r["layer_index"])
    depth = len(rows)
    indices = [r["layer_index"] for r in rows]
    if indices != list(range(depth, 0, -1)):
        raise TreeConfigError(f"layer indices must be exactly 1..{depth}, got {sorted(indices)}")

    _check_count(m, "m", 1)
    _check_count(m_sb, "m_sb", 2)
    if (m, m_sb) != (BITS_PER_QAM, SHAPED_BITS_PER_QAM):
        raise GranularityViolation(
            f"dmkit shapes 256-QAM only: need m={BITS_PER_QAM}, m_sb={SHAPED_BITS_PER_QAM}, got m={m}, m_sb={m_sb}"
        )

    # Per-layer width checks.
    for row in rows:
        l = row["layer_index"]
        is_top = l == depth
        s = _check_count(row["info_bits"], f"s (layer {l})")
        v = _check_count(row["in_bits"], f"v (layer {l})", 1)
        u = _check_count(row["out_bits"], f"u (layer {l})", 1)
        if u > MAX_SYMBOL_BITS:
            raise WidthViolation(f"layer {l}: u={u} exceeds the widest supported LUT, u={MAX_SYMBOL_BITS}")
        if is_top:
            if row["fanin"] is not None or row["parent_bits"] is not None:
                raise TreeConfigError(f"top layer {l} must omit t and r")
            if v != s:
                raise WidthViolation(f"layer {l}: v must equal s for the top layer, got v={v}, s={s}")
        else:
            if row["fanin"] is None or row["parent_bits"] is None:
                raise TreeConfigError(f"layer {l} requires t and r")
            t = _check_count(row["fanin"], f"t (layer {l})", 1)
            r = _check_count(row["parent_bits"], f"r (layer {l})")
            if v != r + s:
                raise WidthViolation(f"layer {l}: v must equal r + s, got v={v}, r={r}, s={s}")
        if v > u:
            raise WidthViolation(f"layer {l}: v={v} exceeds u={u}, table cannot be injective")

    # Fanin/count chain, top-down.
    expected_count = 1
    for row in rows:
        l = row["layer_index"]
        if l != depth:
            expected_count *= row["fanin"]
        if row["lut_count"] is None:
            row["lut_count"] = expected_count
        else:
            _check_count(row["lut_count"], f"T (layer {l})", 1)
            if row["lut_count"] != expected_count:
                raise CountViolation(
                    f"layer {l}: T={row['lut_count']} but the fanin chain gives {expected_count}"
                )

    # Output-width coupling between adjacent layers.
    for upper, lower in zip(rows, rows[1:]):
        need = lower["fanin"] * lower["parent_bits"]
        if upper["out_bits"] != need:
            raise CouplingViolation(
                f"layer {upper['layer_index']}: u={upper['out_bits']} but layer "
                f"{lower['layer_index']} needs t*r={need}"
            )

    leaf = rows[-1]
    if leaf["out_bits"] % CLASS_BITS:
        raise GranularityViolation(
            f"leaf output width {leaf['out_bits']} is not a multiple of {CLASS_BITS} bits per PAM symbol"
        )
    n_out = leaf["lut_count"] * leaf["out_bits"]
    if n_out > MAX_WORD_BITS:
        raise CountViolation(f"output length {n_out} bits exceeds the longest supported word, {MAX_WORD_BITS} bits")
    if n_out % SHAPED_BITS_PER_QAM:
        raise GranularityViolation(f"output length {n_out} is not a multiple of m_sb={SHAPED_BITS_PER_QAM}")
    n_info = sum(r["lut_count"] * r["info_bits"] for r in rows)
    n_pam = n_out // CLASS_BITS

    layers = tuple(LayerParams(**r) for r in rows)
    return TreeSpec(layers=layers, n_info=n_info, n_pam=n_pam, n_out=n_out)


def lut_size_report(spec: TreeSpec) -> dict[str, int]:
    """Accumulated table sizes in bits.

    dm_bits counts the forward tables (T * 2^v entries of u bits per layer),
    invdm_bits the inverse (invDM) tables, LutSet.decode_slots (T * 2^u
    addresses of v bits per layer).
    """
    dm_bits = sum(l.lut_count * (1 << l.in_bits) * l.out_bits for l in spec.layers)
    invdm_bits = sum(l.lut_count * (1 << l.out_bits) * l.in_bits for l in spec.layers)
    return {"dm_bits": dm_bits, "invdm_bits": invdm_bits}


def spec_to_mappings(spec: TreeSpec) -> list[dict[str, int]]:
    """Layer rows as plain dicts with the short config keys, top-down; the top layer has no t or r."""
    return [
        {key: value for key, field in _FIELD_FOR_KEY.items() if (value := getattr(layer, field)) is not None}
        for layer in spec.layers
    ]


def spec_fingerprint(spec: TreeSpec) -> str:
    """Stable hex digest of the spec: the spec_sha256 of a LUT file's header."""
    doc = {"m": BITS_PER_QAM, "m_sb": SHAPED_BITS_PER_QAM, "layers": spec_to_mappings(spec)}
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:32]
