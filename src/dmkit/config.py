"""Configuration files tying a layer table to its companion codes.

A config is a JSON object with the tree description (m, m_sb, layers) and
two optional sections: "ccdm" (four class counts and input width k for
the constant-composition baseline) and "mb_target_2h" (entropy target for
the Maxwell-Boltzmann reference). Unknown fields anywhere are rejected.
The bundled default describes the 7-layer 256-QAM setup with a word
length of 320 PAM symbols.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .ccdm import CcdmCode, Composition
from .mapping import CLASS_BITS
from .tree import TreeConfigError, TreeSpec, validate_tree

BUILTIN_CONFIG_NAME = "hidm7_256qam_320.json"

_TOP_KEYS = {"m", "m_sb", "layers", "ccdm", "mb_target_2h"}
_CCDM_KEYS = {"composition", "k"}


@dataclass(frozen=True)
class ToolkitConfig:
    spec: TreeSpec
    ccdm_code: CcdmCode | None
    mb_target_two_h: float | None


def builtin_config_path() -> Path:
    """Path of the bundled default configuration."""
    return Path(str(resources.files("dmkit").joinpath("configs", BUILTIN_CONFIG_NAME)))


def parse_config(doc: Mapping[str, Any]) -> ToolkitConfig:
    """Validate a parsed JSON document (strict schema)."""
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise TreeConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("m", "m_sb", "layers"):
        if key not in doc:
            raise TreeConfigError(f"config is missing {key!r}")
    if not isinstance(doc["layers"], list):
        raise TreeConfigError("layers must be a list of row objects")
    spec = validate_tree(doc["layers"], doc["m"], doc["m_sb"])

    ccdm_code = None
    if "ccdm" in doc:
        section = doc["ccdm"]
        if not isinstance(section, Mapping):
            raise TreeConfigError("ccdm section must be an object")
        unknown = set(section) - _CCDM_KEYS
        if unknown:
            raise TreeConfigError(f"unknown ccdm fields: {sorted(unknown)}")
        if "composition" not in section or "k" not in section:
            raise TreeConfigError("ccdm section needs composition and k")
        counts = section["composition"]
        if not isinstance(counts, list):
            raise TreeConfigError("ccdm composition must be a list of counts")
        try:
            ccdm_code = CcdmCode(Composition(tuple(counts)), section["k"])
        except ValueError as exc:
            raise TreeConfigError(f"bad ccdm section: {exc}") from exc
        if len(counts) != 1 << CLASS_BITS:
            raise TreeConfigError(f"ccdm composition has {len(counts)} counts, not one per amplitude class ({1 << CLASS_BITS})")

    mb_target = None
    if "mb_target_2h" in doc:
        value = doc["mb_target_2h"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TreeConfigError(f"mb_target_2h must be a number, got {value!r}")
        mb_target = float(value)
    return ToolkitConfig(spec=spec, ccdm_code=ccdm_code, mb_target_two_h=mb_target)


def load_config(path: str | os.PathLike) -> ToolkitConfig:
    """Load and validate a config file."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise TreeConfigError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TreeConfigError(f"{path}: config must be a JSON object")
    return parse_config(doc)
