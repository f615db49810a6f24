"""Synthetic dataset generators.

Inliers live on the unit sphere inside a planted r-dimensional subspace,
outliers on the full sphere: spread uniformly, clustered around a random
center with tightness mu, held in a cone, or a random mix.  Each model's
``sample(streams, basis, count, index_offset=0)`` returns ``count`` unit
columns, an (n, count) array, for the planted n x r ``basis``.
``make_dataset`` shuffles a spec's inlier and outlier columns together; with
``snr_db`` set, inlier i's substream gives its r coordinates and then its n
noise values in one draw, and the noise is added before the shuffle.
Generation is driven by a counter-based RNG (Philox) with one substream per
column, keyed by (seed, domain, column index), so column j of a seed is
always the same, however many columns are drawn around it and in whatever
order; a sample reads the substreams from ``index_offset`` on.

Every draw, a cluster's center included, is one run of consecutive
substreams drawn in one batched pass (``ColumnStreams._normals``), whose rows
are then mapped and normalized with one stacked ``np.matmul`` per step
(``_span``, ``_unit_rows``); a center is a run of one row.  A stacked
matrix-vector matmul runs one gemv per row and a stacked row-by-column matmul
one ddot per row, in C: the calls ``basis @ g`` and ``row @ row`` make, so
every column has the bits of the per-column definition.  A batched gemm or
an axis norm would round differently.  All models but the bounded cone
return a transposed row buffer, with no copy.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, Label, _check_int, _check_real, _freeze, write_csv
from .errors import FeasibilityError, ValidationError

__all__ = [
    "ColumnStreams",
    "UniformInliers",
    "ClusteredInliers",
    "UnstructuredOutliers",
    "ClusteredOutliers",
    "BoundedConeOutliers",
    "MixedOutliers",
    "SynthSpec",
    "SynthDataset",
    "random_subspace",
    "make_dataset",
    "export_dataset",
]

# Substream domains: each (domain, index) pair owns an independent Philox
# stream under a fixed seed.
_DOM_SUBSPACE = 1
_DOM_INLIER = 2
_DOM_OUTLIER = 3
_DOM_INLIER_CENTER = 4
_DOM_OUTLIER_CENTER = 5
_DOM_SHUFFLE = 6
_DOM_AUX = 0

_MAX_INDEX = 1 << 56


def _low_key(domain: int, index) -> int:
    """Low 64 bits of substream (domain, index)'s Philox key, as an int; the
    high 64 are the seed.  A ValidationError refuses an index that is not an
    integer in [0, 2^56)."""
    index = _check_int("substream index", index)
    if not 0 <= index < _MAX_INDEX:
        raise ValidationError(f"substream index out of range: {index}")
    return (domain << 56) | index


def _check_seed(seed) -> int:
    seed = int(seed)
    if not 0 <= seed < (1 << 64):
        raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


@dataclass(frozen=True)
class ColumnStreams:
    """Per-column substreams of a counter-based generator.

    The Philox key packs (seed, domain, index) into 128 bits, so distinct
    columns get independent streams and a column's draws do not depend on
    which other columns were generated or in what order.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def stream(self, domain: int, index: int) -> np.random.Generator:
        key = (self.seed << 64) | _low_key(domain, index)
        return np.random.Generator(np.random.Philox(key=key))

    def _normals(self, domain: int, start: int, count: int, size: int) -> np.ndarray:
        """Row i: the first ``size`` standard normals of substream (domain, start + i).

        Bitwise the same as ``stream(domain, start + i).standard_normal(size)``
        row by row.  One Philox is rekeyed per row instead of built: a fresh
        Philox has counter 0 and an exhausted buffer (``buffer_pos`` 4), so
        setting that state with the row's key reproduces it.
        """
        out = np.empty((count, size))
        if not len(out):
            return out
        first = _low_key(domain, start)
        _low_key(domain, int(start) + len(out) - 1)  # the run's last index
        bitgen = np.random.Philox(0)  # any seed: the state is set per row
        gen = np.random.Generator(bitgen)
        key = [0, self.seed]  # [low word, high word]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for row, low in zip(out, range(first, first + len(out))):
            key[0] = low
            bitgen.state = state
            gen.standard_normal(out=row)
        return out

    def subspace(self) -> np.random.Generator:
        return self.stream(_DOM_SUBSPACE, 0)

    def shuffle(self) -> np.random.Generator:
        return self.stream(_DOM_SHUFFLE, 0)

    def aux(self, index: int) -> np.random.Generator:
        """Experiment-level draws that must not collide with column streams."""
        return self.stream(_DOM_AUX, index)


def random_subspace(n: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of a rotation-invariant random r-dim subspace."""
    if not 1 <= r <= n:
        raise ValidationError(f"rank must lie in [1, n={n}], got {r}")
    a = rng.standard_normal((n, r))
    q, rr = np.linalg.qr(a)
    # Sign-fix the factorization so the distribution is exactly uniform.
    signs = np.sign(np.diag(rr))
    signs[signs == 0] = 1.0
    return q * signs


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row of a C-contiguous array to unit length in place;
    bitwise ``row / np.linalg.norm(row)`` per row.

    ``np.linalg.norm`` of a vector is sqrt(x . x), one ddot over contiguous
    memory; the stacked (1 x n) @ (n x 1) matmul makes that ddot per row.
    """
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
    if not norms.all():
        raise ValidationError("drew a zero vector; cannot normalize")
    rows /= norms[:, None]
    return rows


def _span(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Row i: basis @ coords[i], as a C-contiguous (count, n) array, for
    C-contiguous coords.  The stacked matmul makes per row the one gemv
    that ``basis @ coords[i]`` makes."""
    return np.matmul(basis, coords[:, :, None])[:, :, 0]


class _Inliers:
    """Inlier i's coordinates are the first r normals of its substream, and
    ``_rows`` maps them to unit rows: for ``sample``, and for ``make_dataset``,
    which draws the noise after them."""

    def sample(self, streams, basis, count, index_offset=0) -> np.ndarray:
        coords = streams._normals(_DOM_INLIER, index_offset, count, basis.shape[1])
        return self._rows(streams, basis, coords, index_offset).T


@dataclass(frozen=True)
class UniformInliers(_Inliers):
    """Inliers uniform on the unit sphere of the planted subspace."""

    def _rows(self, streams, basis, coords, index_offset=0) -> np.ndarray:
        """Rows U g / ||U g||."""
        return _unit_rows(_span(basis, coords))


@dataclass(frozen=True)
class ClusteredInliers(_Inliers):
    """Inliers u + nu * v_i around a random in-subspace center u."""

    nu: float

    def __post_init__(self):
        _check_real("nu", self.nu)
        if not self.nu > 0:
            raise ValidationError(f"nu must be positive, got {self.nu!r}")

    def _rows(self, streams, basis, coords, index_offset=0) -> np.ndarray:
        """Rows normalize(u + nu * v_i) with u, v_i unit in span(U)."""
        r = basis.shape[1]
        g = streams._normals(_DOM_INLIER_CENTER, index_offset, 1, r)
        center = _unit_rows(_span(basis, g))  # one row, broadcast over the points
        return _unit_rows(center + self.nu * _unit_rows(_span(basis, coords)))


@dataclass(frozen=True)
class UnstructuredOutliers:
    """Outliers uniform on the full unit sphere."""

    def sample(self, streams, basis, count, index_offset=0) -> np.ndarray:
        draws = streams._normals(_DOM_OUTLIER, index_offset, count, basis.shape[0])
        return _unit_rows(draws).T


@dataclass(frozen=True)
class ClusteredOutliers:
    """Outliers a + mu * b_i around a random center a, then normalized."""

    mu: float

    def __post_init__(self):
        _check_real("mu", self.mu)
        if not self.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.mu!r}")

    def sample(self, streams, basis, count, index_offset=0) -> np.ndarray:
        n = basis.shape[0]
        center = _unit_rows(streams._normals(_DOM_OUTLIER_CENTER, index_offset, 1, n))
        draws = streams._normals(_DOM_OUTLIER, index_offset, count, n)
        return _unit_rows(center + self.mu * _unit_rows(draws)).T


@dataclass(frozen=True)
class BoundedConeOutliers:
    """Outliers rejection-sampled so pairwise angles stay within theta_max."""

    theta_max: float

    def __post_init__(self):
        _check_real("theta_max", self.theta_max)
        if not 0.0 < self.theta_max < math.pi / 2.0:
            raise ValidationError(
                f"theta_max must lie in (0, pi/2), got {self.theta_max!r}")

    def sample(self, streams, basis, count, index_offset=0) -> np.ndarray:
        """Rejection sampling within 1000 * count candidates, or a
        FeasibilityError with the acceptance rate (tight cones in high
        dimension are exponentially unlikely).  Candidates are drawn
        ``count`` at a time; candidate k is outlier substream
        index_offset + k, whatever the batch."""
        n = basis.shape[0]
        cos_min = math.cos(self.theta_max)
        budget = 1000 * count
        cols = np.empty((n, count))
        if count == 0:
            return cols
        accepted = 0
        for first in range(index_offset, index_offset + budget, count):
            for x in _unit_rows(streams._normals(_DOM_OUTLIER, first, count, n)):
                if accepted == 0 or np.all(cols[:, :accepted].T @ x >= cos_min):
                    cols[:, accepted] = x
                    accepted += 1
                    if accepted == count:
                        return cols
        raise FeasibilityError(
            f"accepted {accepted}/{count} cone points in {budget} draws",
            acceptance_rate=accepted / budget)


@dataclass(frozen=True)
class MixedOutliers:
    """A random mix of structured and unstructured outliers.

    ``num_clustered`` draws how many of the outliers form a cluster shaped
    as ``ClusteredOutliers(mu)``; the rest are ``UnstructuredOutliers``,
    drawn at outlier substreams after the cluster's.
    """

    mu: float

    def __post_init__(self):
        _check_real("mu", self.mu)
        if not self.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.mu!r}")

    def num_clustered(self, streams: ColumnStreams, num_outliers: int) -> int:
        """The cluster's size, uniform on 0..num_outliers under stream aux(0)."""
        return int(streams.aux(0).integers(0, num_outliers + 1))

    def sample(self, streams, basis, count, index_offset=0) -> np.ndarray:
        k = self.num_clustered(streams, count)
        return np.hstack([
            ClusteredOutliers(self.mu).sample(streams, basis, k, index_offset),
            UnstructuredOutliers().sample(streams, basis, count - k, index_offset + k)])


_INLIER_MODELS = {"uniform": UniformInliers, "clustered": ClusteredInliers}
_OUTLIER_MODELS = {"unstructured": UnstructuredOutliers,
                   "clustered": ClusteredOutliers,
                   "bounded-cone": BoundedConeOutliers,
                   "mixed": MixedOutliers}


@dataclass(frozen=True)
class SynthSpec:
    """Full description of a synthetic dataset; everything the sidecar needs."""

    n: int
    num_points: int
    rank: int
    gamma: float
    seed: int
    inlier_model: object = UniformInliers()
    outlier_model: object = UnstructuredOutliers()
    snr_db: float | None = None

    def __post_init__(self):
        for name in ("n", "num_points", "rank", "seed"):
            _check_int(name, getattr(self, name))
        _check_real("gamma", self.gamma)
        if self.snr_db is not None:
            _check_real("snr_db", self.snr_db)
        _check_seed(self.seed)
        if self.n < 3:
            raise ValidationError(f"ambient dimension must be at least 3, got {self.n}")
        if not 1 <= self.rank <= self.n:
            raise ValidationError(f"rank must lie in [1, n={self.n}], got {self.rank}")
        if self.num_points < 2:
            raise ValidationError(f"need at least 2 points, got {self.num_points}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValidationError(f"gamma must lie in [0, 1), got {self.gamma!r}")
        if self.num_inliers < 1:
            raise ValidationError("gamma leaves no inliers")
        if type(self.inlier_model) not in _INLIER_MODELS.values():
            raise ValidationError(f"unknown inlier model {self.inlier_model!r}")
        if type(self.outlier_model) not in _OUTLIER_MODELS.values():
            raise ValidationError(f"unknown outlier model {self.outlier_model!r}")

    @property
    def num_outliers(self) -> int:
        # half-up rounding; round-half-even would surprise on exact halves
        return int(math.floor(self.gamma * self.num_points + 0.5))

    @property
    def num_inliers(self) -> int:
        return self.num_points - self.num_outliers


@dataclass(frozen=True, eq=False)
class SynthDataset:
    matrix: DataMatrix
    spec: SynthSpec
    sigma: float | None = None

    @property
    def inlier_indices(self) -> np.ndarray:
        return self.matrix.label_indices(Label.INLIER)

    @property
    def outlier_indices(self) -> np.ndarray:
        return self.matrix.label_indices(Label.OUTLIER)


def _shuffle(inliers: np.ndarray, outliers: np.ndarray,
             streams: ColumnStreams) -> tuple[np.ndarray, np.ndarray]:
    """(values, labels): each block copied straight into its shuffled columns
    of one matrix in C order, the order DataMatrix stores."""
    num_in = inliers.shape[1]
    perm = streams.shuffle().permutation(num_in + outliers.shape[1])
    slot = np.argsort(perm)  # column i of the blocks lands in column slot[i]
    values = np.empty((inliers.shape[0], perm.size))
    values[:, slot[:num_in]] = inliers
    values[:, slot[num_in:]] = outliers
    return values, np.where(perm < num_in, int(Label.INLIER), int(Label.OUTLIER)).astype(np.int8)


def make_dataset(spec: SynthSpec) -> SynthDataset:
    """Build the dataset a SynthSpec describes: its inlier and outlier samples
    shuffled into one matrix.  With ``snr_db`` set, inlier i draws r + n
    normals from its substream: its coordinates, then its noise.  The SNR is
    matrix-level, sigma = ||M||_F / (10^(snr_db/20) sqrt(n N)) with ||M||_F =
    sqrt(N) for unit columns, so sigma = 1 / (10^(snr_db/20) sqrt(n)) and no
    sum or BLAS thread count enters it."""
    streams = ColumnStreams(spec.seed)
    n, r = spec.n, spec.rank
    basis = random_subspace(n, r, streams.subspace())
    noisy = spec.snr_db is not None
    draws = streams._normals(_DOM_INLIER, 0, spec.num_inliers, r + n if noisy else r)
    inliers = spec.inlier_model._rows(streams, basis, np.ascontiguousarray(draws[:, :r]))
    sigma = None
    if noisy:
        sigma = 1.0 / (10.0 ** (spec.snr_db / 20.0) * math.sqrt(n))
        inliers += sigma * draws[:, r:]
    outliers = spec.outlier_model.sample(streams, basis, spec.num_outliers)
    values, labels = _shuffle(inliers.T, outliers, streams)
    matrix = DataMatrix(_freeze(values), labels=_freeze(labels),
                        true_basis=_freeze(basis))
    return SynthDataset(matrix=matrix, spec=spec, sigma=sigma)


_MODEL_NAMES = {cls: name for registry in (_INLIER_MODELS, _OUTLIER_MODELS)
                for name, cls in registry.items()}


def spec_to_dict(spec: SynthSpec) -> dict:
    d = dataclasses.asdict(spec)
    for key in ("inlier_model", "outlier_model"):
        d[key] = {"type": _MODEL_NAMES[type(getattr(spec, key))], **d[key]}
    return d


def export_dataset(dataset: SynthDataset, csv_path,
                   orientation: str = "points-as-rows") -> str:
    """Write the CSV and its JSON sidecar (spec, labels, basis), <csv_path>.json,
    a record for people and other tools to read with ``json.load``."""
    write_csv(dataset.matrix, csv_path, orientation)
    sidecar_path = str(csv_path) + ".json"
    payload = {
        "orientation": orientation,
        "spec": spec_to_dict(dataset.spec),
        "sigma": dataset.sigma,
        "labels": [Label(v).name.lower() for v in dataset.matrix.labels],
        "true_basis": dataset.matrix.true_basis.tolist(),
    }
    with open(sidecar_path, "w") as fh:
        json.dump(payload, fh, indent=1)
    return sidecar_path

