"""JSON documents of a finished design: the lossless design file and the manifest.

One codec walks the dataclasses of a design: each value type is written as
an object holding its fields in field order, exact rationals as fraction
strings ("17/10", never floats, so a reloaded design verifies bit-for-bit
against the original instance), enums as their values and tuples as
arrays. Reading follows the annotated field types back. Beyond that walk
the document has an envelope (``format``, ``instance.{name,hash}``, and
the logical topology's ``router_interfaces`` and ``lightpaths`` at the
top level), and ``LspRoute.demand_id`` is written as ``demand``.

Unknown keys are ignored. A missing key is an error, except for the stage
trace fields added after the format's first files (``_ADDED_AFTER_1``),
which take their defaults.

The manifest is the reproducibility record of a run. Its blocks are the
same codec's form of the parts of a design that say what ran and what it
took, so they carry the design file's field names and exact values.
"""

from __future__ import annotations

import enum
import functools
import json
import typing
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Union

from .model import Design, LspRoute, StageTrace

FORMAT = "mplsotn-design/1"

_RENAMED = {(LspRoute, "demand_id"): "demand"}
_ADDED_AFTER_1 = {(StageTrace, "solver"), (StageTrace, "node_count"),
                  (StageTrace, "dual_bound")}
_hints = functools.cache(typing.get_type_hints)


def _encode(value: Any) -> Any:
    if is_dataclass(value):
        return {_RENAMED.get((type(value), f.name), f.name):
                _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _decode(tp: Any, data: Any) -> Any:
    if data is None:
        return None
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is Union:  # Optional[X]
        return _decode(args[0], data)
    if origin is tuple:
        if args[-1] is Ellipsis:
            return tuple(_decode(args[0], v) for v in data)
        return tuple(_decode(a, v) for a, v in zip(args, data, strict=True))
    if is_dataclass(tp):
        hints, values = _hints(tp), {}
        for f in fields(tp):
            key = _RENAMED.get((tp, f.name), f.name)
            if key in data:
                values[f.name] = _decode(hints[f.name], data[key])
            elif (tp, f.name) not in _ADDED_AFTER_1:
                raise KeyError(key)
        return tp(**values)
    if tp is Fraction or isinstance(tp, type) and issubclass(tp, enum.Enum):
        return tp(data)
    return data


def design_to_dict(design: Design) -> dict:
    body = _encode(design)
    logical = body.pop("logical")
    return {
        "format": FORMAT,
        "instance": {"name": body.pop("instance_name"),
                     "hash": body.pop("instance_hash")},
        "config": body.pop("config"),
        "cost_model": body.pop("cost_model"),
        "router_interfaces": logical["router_interfaces"],
        "lightpaths": logical["lightpaths"],
        **body,
    }


def design_from_dict(data: dict) -> Design:
    if not isinstance(data, dict):
        raise ValueError(f"not a design document (a JSON {type(data).__name__})")
    if data.get("format") != FORMAT:
        raise ValueError(f"not a design document (format={data.get('format')!r})")
    # the logical topology's fields sit at the top level of the document
    return _decode(Design, {**data, "logical": data,
                            "instance_name": data["instance"]["name"],
                            "instance_hash": data["instance"]["hash"]})


def manifest_dict(design: Design) -> dict:
    """Reproducibility record: what ran, how long, how close to optimal."""
    return {
        "instance": {"name": design.instance_name, "hash": design.instance_hash},
        "configuration": _encode(design.config),
        "cost_model": _encode(design.cost_model),
        "cost": {**_encode(design.cost), "total": str(design.cost.total)},
        "metrics": _encode(design.metrics),
        "stages": _encode(design.traces),
        "wall_seconds_total": sum(t.wall_seconds for t in design.traces),
    }


def save_design(design: Design, path: Union[str, Path]) -> None:
    Path(path).write_text(
        json.dumps(design_to_dict(design), indent=2) + "\n", encoding="utf-8"
    )


def load_design(path: Union[str, Path]) -> Design:
    return design_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
