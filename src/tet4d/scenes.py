"""Scene files: deterministic generation, exact serialization, validation.

Coordinates are serialized as decimal-free rational strings ("7", "-3/4") so
round trips are bit-exact.  Scene kinds:

  SEGMENTS            objects: [[p, p], ...]
  TRIANGLES           objects: [[p, p, p], ...]
  TETRAHEDRA          objects: [[p, p, p, p], ...]
  MOVING_TETRAHEDRA   objects: [{"vertices": [q, q, q, q], "velocity": q,
                                 "window": [t0, t1]}, ...]   (q is 3D)
  FLATS_AND_LINES     objects: {"lines": [[p, p], ...],
                                "flats": [[p, p, p], ...]}

where p is a list of four coordinate strings.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .ccd import MovingTetrahedron
from .kernel4d import (
    DegenerateTetrahedron,
    Point4,
    Segment4,
    Tetrahedron4,
    Triangle4,
    as_exact,
)

KINDS = ("SEGMENTS", "TRIANGLES", "TETRAHEDRA", "MOVING_TETRAHEDRA", "FLATS_AND_LINES")
_ARITY = {"SEGMENTS": 2, "TRIANGLES": 3, "TETRAHEDRA": 4}


class SchemaError(ValueError):
    pass


@dataclass
class SceneFile:
    version: int
    kind: str
    objects: object
    seed: Optional[int] = None

    def to_json(self) -> str:
        return json.dumps(
            {"version": self.version, "kind": self.kind, "seed": self.seed,
             "objects": self.objects},
            sort_keys=True, indent=1)


def _coord(s) -> str:
    return str(s)


def _pt(p) -> List[str]:
    return [_coord(c) for c in p]


def _parse_scalar(s):
    try:
        return as_exact(str(s))
    except (ValueError, TypeError, ZeroDivisionError) as ex:
        raise SchemaError(f"bad coordinate {s!r}: {ex}")


def _parse_point(obj, dim=4):
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"point must be a list of {dim} coordinates: {obj!r}")
    return tuple(_parse_scalar(c) for c in obj)


def atomic_write(path: str, data: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-scene-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_scene(path: str, scene: SceneFile):
    atomic_write(path, scene.to_json() + "\n")


def load_scene(path: str) -> SceneFile:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise SchemaError(f"cannot read scene {path}: {ex}")
    if not isinstance(raw, dict):
        raise SchemaError("scene file must be a JSON object")
    for field in ("version", "kind", "objects"):
        if field not in raw:
            raise SchemaError(f"missing field {field!r}")
    if raw["version"] != 1:
        raise SchemaError(f"unsupported version {raw['version']!r}")
    if raw["kind"] not in KINDS:
        raise SchemaError(f"unknown kind {raw['kind']!r}")
    return SceneFile(raw["version"], raw["kind"], raw["objects"], raw.get("seed"))


# ---------------------------------------------------------------------------
# decode scene objects into kernel types


def decode_objects(scene: SceneFile):
    kind = scene.kind
    try:
        if kind == "SEGMENTS":
            return [Segment4(Point4(*_parse_point(o[0])), Point4(*_parse_point(o[1])))
                    for o in _expect_list(scene.objects, 2)]
        if kind == "TRIANGLES":
            return [Triangle4(*(Point4(*_parse_point(p)) for p in o))
                    for o in _expect_list(scene.objects, 3)]
        if kind == "TETRAHEDRA":
            return [Tetrahedron4(*(Point4(*_parse_point(p)) for p in o))
                    for o in _expect_list(scene.objects, 4)]
        if kind == "MOVING_TETRAHEDRA":
            out = []
            if not isinstance(scene.objects, list):
                raise SchemaError("objects must be a list")
            for o in scene.objects:
                if not isinstance(o, dict) or set(o) != {"vertices", "velocity", "window"}:
                    raise SchemaError(f"bad moving tetrahedron: {o!r}")
                vs = tuple(_parse_point(p, 3) for p in o["vertices"])
                if len(vs) != 4:
                    raise SchemaError("moving tetrahedron needs 4 vertices")
                vel = _parse_point(o["velocity"], 3)
                t0, t1 = (Fraction(_parse_scalar(x)) for x in o["window"])
                out.append(MovingTetrahedron(vs, vel, t0, t1))
            return out
        if kind == "FLATS_AND_LINES":
            if not isinstance(scene.objects, dict) or set(scene.objects) != {"lines", "flats"}:
                raise SchemaError("FLATS_AND_LINES objects must have 'lines' and 'flats'")
            lines = [Segment4(Point4(*_parse_point(o[0])), Point4(*_parse_point(o[1])))
                     for o in _expect_list(scene.objects["lines"], 2)]
            flats = [tuple(Point4(*_parse_point(p)) for p in o)
                     for o in _expect_list(scene.objects["flats"], 3)]
            for f in flats:
                Triangle4(*f)  # validates affine independence
            return lines, flats
    except SchemaError:
        raise
    except (ValueError, DegenerateTetrahedron, TypeError, IndexError) as ex:
        raise SchemaError(f"invalid {kind} object: {ex}")
    raise SchemaError(f"unknown kind {kind!r}")


def _expect_list(objs, arity):
    if not isinstance(objs, list):
        raise SchemaError("objects must be a list")
    for o in objs:
        if not isinstance(o, list) or len(o) != arity:
            raise SchemaError(f"object must be a list of {arity} points: {o!r}")
    return objs


# ---------------------------------------------------------------------------
# generation


_MAX_RETRIES = 1000


def _rnd_point(rng, center, spread, dim=4):
    return tuple(center[i] + rng.randint(-spread, spread) for i in range(dim))


def _gen_simplex(rng, crange, spread, npts):
    for _ in range(_MAX_RETRIES):
        center = tuple(rng.randint(-crange, crange) for _ in range(4))
        pts = [Point4(*_rnd_point(rng, center, spread)) for _ in range(npts)]
        try:
            if npts == 2:
                Segment4(pts[0], pts[1])
            elif npts == 3:
                Triangle4(*pts)
            else:
                Tetrahedron4(*pts)
            return pts
        except (ValueError, DegenerateTetrahedron):
            continue
    raise RuntimeError("exhausted retries generating a non-degenerate object")


def _gen_cluster_tetra(rng, crange, spread, count):
    """Tetrahedra that all contain a common interior point (their centroid),
    giving scenes rich in triple and quadruple intersections."""
    core = tuple(rng.randint(-crange, crange) for _ in range(4))
    out = []
    for _ in range(count):
        for _try in range(_MAX_RETRIES):
            vs = [Point4(*_rnd_point(rng, core, spread)) for _ in range(3)]
            v3 = Point4(*(4 * core[i] - vs[0][i] - vs[1][i] - vs[2][i] for i in range(4)))
            try:
                out.append(Tetrahedron4(vs[0], vs[1], vs[2], v3))
                break
            except DegenerateTetrahedron:
                continue
        else:
            raise RuntimeError("exhausted retries generating a cluster")
    return out


def generate(kind: str, n: int, crange: int, seed: int, spread: Optional[int] = None,
             m: Optional[int] = None, style: str = "uniform") -> SceneFile:
    """Deterministic scene from a seed; degenerate configurations are
    rejected and resampled.  style is "uniform", or "cluster" for
    TETRAHEDRA; m, the line count, is for FLATS_AND_LINES only."""
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if style != "uniform" and (style, kind) != ("cluster", "TETRAHEDRA"):
        raise ValueError(f"style {style!r} is not a style of {kind} scenes")
    if m is not None and kind != "FLATS_AND_LINES":
        raise ValueError(f"m is the line count of FLATS_AND_LINES, not of {kind}")
    rng = random.Random(seed)
    spread = spread if spread is not None else max(1, crange)

    if kind in _ARITY:
        if kind == "TETRAHEDRA" and style == "cluster":
            objs = []
            left = n
            while left > 0:
                g = min(left, rng.randint(5, 8))
                objs.extend(_gen_cluster_tetra(rng, crange, spread, g))
                left -= g
            data = [[_pt(p) for p in t.vertices] for t in objs]
        else:
            data = [[_pt(p) for p in _gen_simplex(rng, crange, spread, _ARITY[kind])]
                    for _ in range(n)]
        return SceneFile(1, kind, data, seed)

    if kind == "MOVING_TETRAHEDRA":
        data = []
        for _ in range(n):
            for _try in range(_MAX_RETRIES):
                center = tuple(rng.randint(-crange, crange) for _ in range(3))
                vs = tuple(tuple(center[k] + rng.randint(-spread, spread) for k in range(3))
                           for _ in range(4))
                vel = tuple(rng.randint(-spread, spread) for _ in range(3))
                try:
                    MovingTetrahedron(vs, vel, Fraction(0), Fraction(1))
                    break
                except ValueError:
                    continue
            else:
                raise RuntimeError("exhausted retries")
            data.append({
                "vertices": [[_coord(c) for c in v] for v in vs],
                "velocity": [_coord(c) for c in vel],
                "window": ["0", "1"],
            })
        return SceneFile(1, kind, data, seed)

    # FLATS_AND_LINES: n flats, m lines (default m = n); a fraction of the
    # lines is constructed to pass through a flat so meets actually occur
    m = m if m is not None else n
    flats = [_gen_simplex(rng, crange, spread, 3) for _ in range(n)]
    lines = []
    for _ in range(m):
        if flats and rng.random() < 0.4:
            f = flats[rng.randrange(len(flats))]
            lam, mu = rng.randint(-2, 2), rng.randint(-2, 2)
            p = Point4(*(f[0][i] + lam * (f[1][i] - f[0][i]) + mu * (f[2][i] - f[0][i])
                         for i in range(4)))
            for _try in range(_MAX_RETRIES):
                d = tuple(rng.randint(-spread, spread) for _ in range(4))
                if any(d):
                    break
            q = Point4(*(p[i] + d[i] for i in range(4)))
            lines.append([_pt(p), _pt(q)])
        else:
            seg = _gen_simplex(rng, crange, spread, 2)
            lines.append([_pt(seg[0]), _pt(seg[1])])
    data = {"lines": lines, "flats": [[_pt(p) for p in f] for f in flats]}
    return SceneFile(1, "FLATS_AND_LINES", data, seed)
