"""Canonical report rendering.

JSON output is deterministic: object keys sorted, exact rationals as
strings like "4/9", integer matrices as row-major arrays of decimal
strings, limit-group vectors keyed by vertex id.  No floats anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .afcore import K0FClass, GradedProjection, k0f_value_in_closed_form
from .algebra import CKElement, GaussianRational
from .cone import ConeClass, ev_star
from .exprs import format_element
from .intmat import AbelianGroup, IntMatrix
from .ktheory import CosetClass, KTheoryReport
from .pairing import AdmissibleIsometry, PairingReport


def to_jsonable(obj):
    """Recursively convert report objects to JSON-ready structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        raise TypeError("floats are banned from reports")
    if isinstance(obj, GaussianRational):
        return str(obj)
    if isinstance(obj, IntMatrix):
        return [[str(x) for x in row] for row in obj.entries]
    if isinstance(obj, AbelianGroup):
        return {"free_rank": obj.free_rank, "torsion": list(obj.torsion),
                "pretty": str(obj)}
    if isinstance(obj, K0FClass):
        out = {"level": obj.level,
               "vector": {name: obj.vec[i] for i, name in enumerate(obj.graph.vertices)}}
        closed = k0f_value_in_closed_form(obj)
        if closed is not None:
            out["closed_form"] = str(closed)
        return out
    if isinstance(obj, GradedProjection):
        return {"projection": format_element(obj.q), "phi_index": obj.k}
    if isinstance(obj, CKElement):
        return format_element(obj)
    if isinstance(obj, CosetClass):
        return {"coords": list(obj.coords), "moduli": list(obj.moduli),
                "is_zero": obj.is_zero}
    if isinstance(obj, AdmissibleIsometry):
        return {"blocks": [format_element(b) for b in obj.blocks]}
    if isinstance(obj, ConeClass):
        return {"representative": to_jsonable(obj.rep),
                "ev": to_jsonable(ev_star(obj)),
                "index": to_jsonable(obj.index_class)}
    if isinstance(obj, KTheoryReport):
        return {"K0": to_jsonable(obj.k0), "K1": to_jsonable(obj.k1),
                "matrix": to_jsonable(obj.presentation_matrix),
                "K0_generator_images": to_jsonable(obj.k0_generator_images)}
    if isinstance(obj, PairingReport):
        return {"routes": to_jsonable(obj.routes),
                "agree": obj.agree,
                "breakdown": to_jsonable(obj.per_route_breakdown),
                "orientation": obj.orientation}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(x) for x in items]
    raise TypeError(f"cannot render {type(obj).__name__}")


def render_report(report: dict, fmt: str = "json") -> str:
    """Serialize a report deterministically in the requested format."""
    data = to_jsonable(report)
    if fmt == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        lines = []
        _text_lines(data, lines, indent=0)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _text_lines(data, lines, indent):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _text_lines(value, lines, indent + 1)
            else:
                lines.append(f"{pad}{key}: {_scalar(value)}")
    elif isinstance(data, list):
        for value in data:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                _text_lines(value, lines, indent + 1)
            else:
                lines.append(f"{pad}- {_scalar(value)}")
    else:
        lines.append(f"{pad}{_scalar(data)}")


def _scalar(value):
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list)):
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)
