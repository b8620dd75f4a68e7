"""Seeded request generators for the four benchmark workloads.

Each workload is an endless sequence of *rounds*.  A round holds one request
per size class, in a seed-shuffled order, with seed-drawn details inside each
class (Betti vectors, vertex labels, window shapes, test-function parameters,
Monte Carlo seeds).  Every round of a workload therefore costs about the same,
whatever the seed, so throughput and latency percentiles from runs on
different seeds are comparable; a run always measures whole rounds.

A request carries the ``gammahodge`` argv the client sends and an ``expect``
dict with what the oracle needs to check the reply.  The program only ever
sees the argv.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: dict

    @property
    def command(self) -> str:
        return self.argv[0]

    def to_json(self) -> dict:
        return {"argv": list(self.argv), "expect": self.expect}


def _rng(workload: str, seed: int, stream: str, round_index: int) -> random.Random:
    # String seeds hash through SHA-512, so streams are stable across processes.
    return random.Random(f"{workload}/{seed}/{stream}/{round_index}")


def _doc(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# betti: the configuration-space formula alone

# Odd-only vectors: (d, lowest beta_k, highest beta_k).  Cost follows the
# hidden threshold K_0 = sum k beta_k, not the requested n_max <= 4.
_ODD_ONLY_CLASSES = ((5, 3, 6), (5, 7, 10), (6, 3, 6), (6, 7, 10), (7, 3, 5), (7, 6, 8))
# Mixed-parity vectors: (d, n_max).  Cost follows the per-n enumeration, and
# n_max is not jittered: at d = 8 one step of n_max changes the cost by ~10%.
_MIXED_CLASSES = ((4, 10), (4, 40), (6, 20), (6, 30), (8, 15), (8, 35))


def _betti_round(rng: random.Random) -> list[Request]:
    out = []
    for d, lo, hi in _ODD_ONLY_CLASSES:
        beta = [0] * (d + 1)
        for k in range(1, d + 1, 2):
            beta[k] = rng.randint(lo, hi)
        out.append(_betti_request(d, beta, rng.randint(1, 4)))
    for d, n_max in _MIXED_CLASSES:
        beta = [0] + [rng.randint(1, 6) for _ in range(d)]
        out.append(_betti_request(d, beta, n_max))
    rng.shuffle(out)
    return out


def _betti_request(d: int, beta: list[int], n_max: int) -> Request:
    return Request(
        argv=("betti", "--input", _doc({"d": d, "beta": beta}), "--n-max", str(n_max)),
        expect={"beta": beta, "n_max": n_max},
    )


# ---------------------------------------------------------------------------
# algebra: algebra-check sweeps on grids shrunk from the default

# A round is every pairing of a word-dimension part (l_max, degree_max,
# dim_max, m_max, n_max) with a Betti part (betti_d_max, betti_beta_max,
# betti_n_max): nine grids of 0.15-0.5 s and 0.2-0.6 MB of JSON each.  The
# seed only orders them: every input of algebra-check changes its cost, and a
# seed-drawn mix would move the latency percentiles between size classes.
_DIMS_CLASSES = ((2, 3, 2, 4, 6), (2, 4, 2, 4, 6), (3, 3, 2, 3, 5))
_BETTI_GRID_CLASSES = ((2, 2, 4), (2, 2, 5), (3, 2, 5))


def _algebra_round(rng: random.Random) -> list[Request]:
    out = []
    for (l_max, degree_max, dim_max, m_max, n_max), (bd, bb, bn) in itertools.product(
            _DIMS_CLASSES, _BETTI_GRID_CLASSES):
        grid = {
            "l_max": l_max, "degree_max": degree_max, "dim_max": dim_max,
            "m_max": m_max, "n_max": n_max,
            "betti_d_max": bd, "betti_beta_max": bb, "betti_n_max": bn,
        }
        out.append(Request(
            argv=("algebra-check", "--grid", _doc(grid)),
            expect={"grid": grid, "n_max": bn},
        ))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# hodge: simplicial and pipeline on complexes of known homology

def torus(a: int, b: int) -> tuple[list[list[int]], list[int], list[int]]:
    """a x b grid torus: maximal simplices, Betti numbers, chain dimensions."""
    def v(i, j):
        return (i % a) * b + (j % b)
    maximal = []
    for i in range(a):
        for j in range(b):
            maximal.append([v(i, j), v(i + 1, j), v(i + 1, j + 1)])
            maximal.append([v(i, j), v(i, j + 1), v(i + 1, j + 1)])
    return maximal, [1, 2, 1], [a * b, 3 * a * b, 2 * a * b]


def sphere(n: int) -> tuple[list[list[int]], list[int], list[int]]:
    """Boundary of the n-simplex (n >= 2), an (n-1)-sphere."""
    maximal = [list(face) for face in itertools.combinations(range(n + 1), n)]
    return maximal, [1] + [0] * (n - 2) + [1], [math.comb(n + 1, k + 1) for k in range(n)]


def wedge(k: int, length: int) -> tuple[list[list[int]], list[int], list[int]]:
    """k cycles of the given length sharing vertex 0."""
    maximal = []
    nxt = 1
    for _ in range(k):
        cycle = [0] + list(range(nxt, nxt + length - 1))
        nxt += length - 1
        maximal += [[cycle[i], cycle[(i + 1) % length]] for i in range(length)]
    return maximal, [1, k], [1 + k * (length - 1), k * length]


def _relabel(rng: random.Random, maximal: list[list[int]]) -> list[list[int]]:
    verts = sorted({v for s in maximal for v in s})
    labels = rng.sample(range(10 * len(verts) + 10), len(verts))
    mapping = dict(zip(verts, labels))
    out = [[mapping[v] for v in s] for s in maximal]
    rng.shuffle(out)
    return out


_TORUS_SHAPES = tuple((a, b) for a in range(3, 7) for b in range(a, 7))
# Seven 4x6 pipelines, of near-equal cost, make a dense cluster around the
# median latency, so that it does not sit in a gap between size classes.
_PIPELINE_TORI = ((3, 4),) + ((4, 6),) * 7 + ((5, 6),)


def _family(rng: random.Random, kind: str, *size):
    if kind == "torus" and rng.random() < 0.5:
        size = size[::-1]
    maximal, betti, chains = {"torus": torus, "sphere": sphere, "wedge": wedge}[kind](*size)
    return _relabel(rng, maximal), betti, chains


def _simplicial_request(rng, kind, *size, probes=0) -> Request:
    maximal, betti, chains = _family(rng, kind, *size)
    argv = ["simplicial", "--input", _doc({"maximal": maximal})]
    if probes:
        argv += ["--kron-probes", str(probes), "--seed", str(rng.randrange(2**31))]
    return Request(
        argv=tuple(argv),
        expect={"betti": betti, "chain_dims": chains, "probes": probes},
    )


def _pipeline_request(rng, kind, *size) -> Request:
    maximal, betti, _ = _family(rng, kind, *size)
    n_max = rng.randint(4, 12)
    infinite_volume = rng.random() < 0.5
    expect = {"complex_betti": betti, "n_max": n_max, "infinite_volume": infinite_volume}
    doc = {"maximal": maximal}
    if rng.random() < 0.5:
        mark_kind = rng.choice(("sphere", "wedge"))
        mark_size = (rng.randint(2, 4),) if mark_kind == "sphere" else (rng.randint(1, 3), 3)
        mark, mark_betti, _ = _family(rng, mark_kind, *mark_size)
        doc = {"complex": doc, "mark": {"maximal": mark}}
        expect["mark_betti"] = mark_betti
    argv = ["pipeline", "--input", _doc(doc), "--n-max", str(n_max)]
    if infinite_volume:
        argv.append("--infinite-volume")
    return Request(argv=tuple(argv), expect=expect)


def _hodge_round(rng: random.Random) -> list[Request]:
    out = [_simplicial_request(rng, "torus", a, b, probes=rng.choice((0, 0, 2)))
           for a, b in _TORUS_SHAPES]
    out += [_simplicial_request(rng, "sphere", n, probes=rng.randint(1, 4)) for n in range(2, 7)]
    out += [_simplicial_request(rng, "wedge", rng.randint(1, 8), rng.randint(3, 5),
                                probes=rng.choice((0, 3)))
            for _ in range(3)]
    out += [_pipeline_request(rng, "torus", a, b) for a, b in _PIPELINE_TORI]
    out += [_pipeline_request(rng, "sphere", n) for n in (3, 5)]
    out += [_pipeline_request(rng, "wedge", rng.randint(1, 8), rng.randint(3, 5)) for _ in range(2)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# poisson: Monte Carlo identity checks

POISSON_SAMPLES = 100_000
_CHECKS = ("laplace", "local", "mecke1", "mecke2", "mecke3")
# Slot volumes, indexed [check][dim - 1].  mecke3 in 3-D at volume 20 sets the
# peak memory of every round.
_SLOT_VOLUMES = (
    (4.0, 12.0, 6.0),
    (14.0, 2.0, 10.0),
    (8.0, 16.0, 3.0),
    (18.0, 5.0, 12.0),
    (2.5, 9.0, 20.0),
)


def _window(rng: random.Random, dim: int, volume: float) -> list[float]:
    aspect = [rng.uniform(0.6, 1.6) for _ in range(dim)]
    scale = (volume / math.prod(aspect)) ** (1.0 / dim)
    return [round(a * scale, 6) for a in aspect]


def _scalar(rng: random.Random, kind: str, lengths: list[float], scale_range) -> dict:
    scale = round(rng.uniform(*scale_range), 6)
    if kind == "gaussian":
        return {
            "kind": "gaussian", "scale": scale,
            "center": [round(rng.uniform(0.2, 0.8) * L, 6) for L in lengths],
            "width": [round(rng.uniform(0.3, 0.7) * L, 6) for L in lengths],
        }
    lo = [rng.uniform(0.0, 0.5) for _ in lengths]
    return {
        "kind": "box", "scale": scale,
        "lo": [round(f * L, 6) for f, L in zip(lo, lengths)],
        "hi": [round((f + rng.uniform(0.2, 0.5)) * L, 6) for f, L in zip(lo, lengths)],
    }


def _poisson_round(rng: random.Random) -> list[Request]:
    out = []
    for ci, check in enumerate(_CHECKS):
        for dim in (1, 2, 3):
            kind = "gaussian" if (ci + dim) % 2 == 0 else "box"
            volume = _SLOT_VOLUMES[ci][dim - 1] * rng.uniform(0.97, 1.0)
            lengths = _window(rng, dim, volume)
            spec = {"window": {"dim": dim, "lengths": lengths}}
            if check == "laplace":
                spec.update(check="laplace", f=_scalar(rng, kind, lengths, (-1.0, 0.3)))
            elif check == "local":
                coeffs = [round(rng.uniform(-1, 1), 6) for _ in range(3)]
                spec.update(check="local", f={
                    "kind": "poly_of_sum",
                    "phi": _scalar(rng, kind, lengths, (0.2, 1.0)),
                    "h": {"coeffs": coeffs},
                })
            else:
                other = "box" if kind == "gaussian" else "gaussian"
                coeffs = [round(rng.uniform(0.5, 1.5), 6), round(rng.uniform(-0.5, 0.5), 6),
                          round(rng.uniform(-0.1, 0.1), 6)]
                spec.update(check="mecke", m=int(check[-1]), f={
                    "g": _scalar(rng, kind, lengths, (0.3, 1.0)),
                    "phi": _scalar(rng, other, lengths, (0.2, 0.8)),
                    "h": {"coeffs": coeffs},
                })
            out.append(Request(
                argv=("poisson", "--input", _doc(spec),
                      "--seed", str(rng.randrange(2**32)), "--samples", str(POISSON_SAMPLES)),
                expect={"check": spec["check"], "samples": POISSON_SAMPLES,
                        "volume": math.prod(lengths), "spec": spec},
            ))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Callable[[random.Random], list[Request]]] = {
    "betti": _betti_round,
    "algebra": _algebra_round,
    "hodge": _hodge_round,
    "poisson": _poisson_round,
}


def rounds(workload: str, seed: int, stream: str = "measure") -> Iterator[list[Request]]:
    """Endless rounds of requests; the same (workload, seed, stream) repeats exactly."""
    make = WORKLOADS[workload]
    for index in itertools.count():
        yield make(_rng(workload, seed, stream, index))
