"""JSON input files for groups and quantum groups.

Group file:
    { "order": n, "mult_table": [[...]], "metric": [[...]]?, "length": [...]?,
      "irreps": [ { "dim": d, "matrices_over_A": [[[coeff ...] ...] ...] } ]? }

Quantum-group file:
    { "dim": n, "mult": ..., "comult": ..., "unit": ..., "star": ...,
      "counit": ..., "antipode": ..., "rep": [...], "irreps": [...]? }

A tensor is written either in plain reals or with every entry a two-element
[re, im] array, i.e. with one more trailing axis of length 2; its known rank
tells the two apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .corep import Corepresentation, default_irreps
from .errors import ConfigError, StructureError
from .hopf import FiniteQuantumGroup, _solve_haar, function_algebra, group_algebra


class ParseError(ConfigError):
    """Unreadable or malformed input file; JSON syntax errors carry line and column."""


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read the file ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _as_complex(node, shape: tuple, name: str) -> np.ndarray:
    """A finite complex tensor of this shape (None: any length) from reals or [re, im] pairs."""
    try:
        arr = np.ascontiguousarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise StructureError(f"{name} is not a rectangular array of numbers") from exc
    if not np.all(np.isfinite(arr)):      # JSON as Python reads it admits NaN and Infinity
        raise StructureError(f"{name} has non-finite entries")
    if arr.ndim == len(shape) + 1 and arr.shape[-1] == 2:
        arr = arr.view(complex)[..., 0]
    if arr.ndim != len(shape) or any(k not in (None, m) for k, m in zip(shape, arr.shape)):
        raise StructureError(f"{name} must have shape {shape} in reals or [re, im] pairs, "
                             f"got {np.shape(node)}")
    return arr.astype(complex)


def _as_real(node, shape: tuple, name: str) -> np.ndarray:
    """A real tensor read as ``_as_complex`` reads one; a nonzero imaginary part is an error."""
    arr = _as_complex(node, shape, name)
    if np.any(arr.imag):
        raise StructureError(f"{name} must be real")
    return arr.real.copy()


@dataclass(frozen=True, eq=False)
class LoadedInput:
    algebra: FiniteQuantumGroup
    irreps: list | None          # None means "not supplied": the finder reads them off the algebra
    source: str                  # "group" | "quantum_group"

    def irreps_or_default(self):
        if self.irreps is not None:
            return self.irreps
        return default_irreps(self.algebra)


def load_input(path: str, family: str = "auto") -> LoadedInput:
    """Load either file format; ``family`` picks F(G) or C*(G) for group files."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise StructureError(f"{path}: top level must be an object")
    if "mult_table" in data or "order" in data:
        return _load_group(path, data, family)
    if "dim" in data:
        return _load_quantum_group(path, data)
    raise StructureError(f"{path}: neither a group file (mult_table) nor a quantum-group file (dim)")


def _load_group(path: str, data: dict, family: str) -> LoadedInput:
    try:
        order = int(data["order"])
        table = np.asarray(data["mult_table"], dtype=int)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"{path}: group files need integer 'order' and 'mult_table'") from exc
    if table.shape != (order, order):
        raise StructureError(f"{path}: mult_table must be {order}x{order}, got {table.shape}")
    metric = _as_real(data["metric"], (None, None), f"{path}: 'metric'") if "metric" in data else None
    length = _as_real(data["length"], (None,), f"{path}: 'length'") if "length" in data else None

    if family == "auto":
        family = "group" if (length is not None and metric is None) else "function"
    if family == "function":
        algebra = function_algebra(table, metric=metric)
    elif family == "group":
        algebra = group_algebra(table, length=length)
    else:
        raise ConfigError(f"unknown family {family!r} (use 'function', 'group' or 'auto')")

    irreps = _parse_irreps(path, data, algebra.dim) if "irreps" in data else None
    return LoadedInput(algebra=algebra, irreps=irreps, source="group")


def _load_quantum_group(path: str, data: dict) -> LoadedInput:
    required = ["dim", "mult", "comult", "unit", "star", "counit", "antipode", "rep"]
    missing = [key for key in required if key not in data]
    if missing:
        raise StructureError(f"{path}: quantum-group file is missing {missing}")
    try:
        n = int(data["dim"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"{path}: 'dim' must be an integer, got {data['dim']!r}") from exc
    mult, comult, unit, star, counit, antipode = (
        _as_complex(data[key], shape, f"{path}: '{key}'")
        for key, shape in (("mult", (n, n, n)), ("comult", (n, n, n)), ("unit", (n,)),
                           ("star", (n, n)), ("counit", (n,)), ("antipode", (n, n))))
    rep = _as_complex(data["rep"], (n, None, None), f"{path}: 'rep'")
    if rep.shape[1] != rep.shape[2]:
        raise StructureError(f"{path}: rep must be a list of n square matrices, got {rep.shape}")
    haar = _solve_haar(comult, unit, n)
    algebra = FiniteQuantumGroup(dim=n, mult=mult, unit=unit, star=star, comult=comult,
                                 counit=counit, antipode=antipode, rep=rep, haar=haar,
                                 kind="custom", label=f"custom({path})")
    irreps = _parse_irreps(path, data, n) if "irreps" in data else None
    return LoadedInput(algebra=algebra, irreps=irreps, source="quantum_group")


def _parse_irreps(path: str, data: dict, n: int) -> list:
    out = []
    for k, node in enumerate(data["irreps"]):
        try:
            d = int(node["dim"])
            coeffs = node["matrices_over_A"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StructureError(
                f"{path}: irrep {k} needs 'dim' and 'matrices_over_A' of shape (d, d, {n})") from exc
        u = _as_complex(coeffs, (d, d, n), f"{path}: irrep {k} 'matrices_over_A'")
        out.append(Corepresentation(u=u, label=node.get("label", f"irrep_{k}")))
    return out


def dump_group_file(path: str, table, metric=None, length=None, irreps=None) -> None:
    """Write a group input file (used by the demos and tests)."""
    table = np.asarray(table, dtype=int)
    payload: dict = {"order": int(table.shape[0]), "mult_table": table.tolist()}
    if metric is not None:
        payload["metric"] = np.asarray(metric, dtype=float).tolist()
    if length is not None:
        payload["length"] = np.asarray(length, dtype=float).tolist()
    if irreps is not None:
        payload["irreps"] = _encode_irreps(irreps)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def dump_quantum_group_file(path: str, algebra: FiniteQuantumGroup, irreps=None) -> None:
    """Write the structure tensors of an algebra as a quantum-group input file."""
    payload = {
        "dim": algebra.dim,
        "mult": _encode_complex(algebra.mult),
        "comult": _encode_complex(algebra.comult),
        "unit": _encode_complex(algebra.unit),
        "star": _encode_complex(algebra.star),
        "counit": _encode_complex(algebra.counit),
        "antipode": _encode_complex(algebra.antipode),
        "rep": _encode_complex(algebra.rep),
    }
    if irreps is not None:
        payload["irreps"] = _encode_irreps(irreps)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def _encode_irreps(irreps) -> list:
    return [
        {"dim": pi.dim, "matrices_over_A": _encode_complex(pi.u), "label": pi.label}
        for pi in irreps
    ]


def _encode_complex(arr: np.ndarray):
    arr = np.asarray(arr, dtype=complex)
    re, im = arr.real, arr.imag
    out = np.stack([re, im], axis=-1)
    return out.tolist()
