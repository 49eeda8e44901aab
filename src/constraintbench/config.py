"""Flat key=value configuration file for harness settings.

The keys are the fields of ``HarnessConfig``: port_pool (range
``8080-8099`` or comma list), aliases (path to a layer-alias JSON), pg_url,
workspace_root, and the int and float fields, read as their defaults'
types. ``#`` comments and ``[section]`` headers are tolerated and ignored.
A ``#`` starts a comment only at the start of a line or after whitespace,
so a ``#`` inside a value with no space before it is kept
(``workspace_root = /tmp/runs#1``). A number that does not parse, or a
port_pool piece that is not a port or a rising range of ports in 1-65535,
is rejected with its line. The loaded config must then pass
``HarnessConfig.check``: every number field finite and positive (so
``workers`` is at least 1), and a port pool that is not empty and names no
port twice.
"""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

from .errors import TaskSetupError
from .harness import LEASABLE_PORTS, HarnessConfig
from .verifiers import LayerAliasMap

# key -> int or float, for every HarnessConfig field with such a default
_NUMBER_TYPES = {
    f.name: type(f.default) for f in fields(HarnessConfig) if type(f.default) in (int, float)
}
_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_ports(raw: str, line_number: int) -> list[int]:
    ports: list[int] = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        first, dash, last = piece.partition("-")
        try:
            low = int(first)
            high = int(last) if dash else low
            valid = low <= high and low in LEASABLE_PORTS and high in LEASABLE_PORTS
        except ValueError:
            valid = False
        if not valid:
            raise TaskSetupError(
                f"port_pool piece {piece!r} (line {line_number}) is not a port, "
                "or a rising range of ports, in 1-65535"
            )
        ports.extend(range(low, high + 1))
    return ports


def parse_config_text(text: str, base_dir: Path | None = None) -> HarnessConfig:
    config = HarnessConfig.from_env()
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw_line, maxsplit=1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise TaskSetupError(f"config line {line_number} is not key=value: {raw_line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key == "port_pool":
            config.port_pool = _parse_ports(value, line_number)
        elif key in _NUMBER_TYPES:
            kind = _NUMBER_TYPES[key]
            try:
                setattr(config, key, kind(value))
            except ValueError:
                raise TaskSetupError(
                    f"config key {key!r} (line {line_number}) is not "
                    f"{'a whole number' if kind is int else 'a number'}: {value!r}"
                ) from None
        elif key == "pg_url":
            config.pg_url = value or None
        elif key == "workspace_root":
            config.workspace_root = value
        elif key == "aliases":
            path = Path(value)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            config.aliases = LayerAliasMap.from_file(path)
        else:
            hint = "; health_timeout alone sets the health wait" if key.startswith("health_") else ""
            raise TaskSetupError(f"unknown config key {key!r} (line {line_number}){hint}")
    try:
        config.check()
    except ValueError as exc:
        raise TaskSetupError(str(exc)) from None
    return config


def load_config(path) -> HarnessConfig:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), base_dir=path.parent)
