"""Synthetic dataset generators.

Inliers live on the unit sphere inside a planted r-dimensional subspace,
outliers on the full sphere, either spread uniformly, clustered around a
random center with tightness mu, or a random mix of the two.  Generation is
driven by a counter-based RNG (Philox) with one substream per column, keyed
by (seed, domain, column index), so datasets are bitwise reproducible no
matter how generation is parallelized or interleaved: column j of a given
seed is always the same.

Samplers draw all their columns in one batched pass (``ColumnStreams._normals``)
and keep per column only the arithmetic that decides the bits: one
matrix-vector product and one contiguous dot-product norm per column.  A
batched gemm or an axis norm rounds differently, so neither is used.  The
samplers other than the bounded cone build one point per row and return
that buffer's transpose, an (n, count) view in Fortran order, with no copy.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import DataMatrix, Label, write_csv
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
    "sample_uniform_inliers",
    "sample_clustered_inliers",
    "sample_unstructured_outliers",
    "sample_clustered_outliers",
    "sample_bounded_cone",
    "make_dataset",
    "export_dataset",
    "load_sidecar",
    "NOISE_TARGETS",
]

NOISE_TARGETS = ("inliers", "all")

# Substream domains: each (domain, index) pair owns an independent Philox
# stream under a fixed seed.
_DOM_SUBSPACE = 1
_DOM_INLIER = 2
_DOM_OUTLIER = 3
_DOM_INLIER_CENTER = 4
_DOM_OUTLIER_CENTER = 5
_DOM_SHUFFLE = 6
_DOM_NOISE = 7
_DOM_AUX = 0

_MAX_INDEX = 1 << 56


def _low_key(domain: int, index: int) -> int:
    """Low 64 bits of a substream's Philox key; the high 64 are the seed."""
    if not 0 <= index < _MAX_INDEX:
        raise ValidationError(f"substream index out of range: {index}")
    return (domain << 56) | index


@dataclass(frozen=True)
class ColumnStreams:
    """Per-column substreams of a counter-based generator.

    The Philox key packs (seed, domain, index) into 128 bits, so distinct
    columns get independent streams and a column's draws do not depend on
    which other columns were generated or in what order.
    """

    seed: int

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < (1 << 64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {seed}")
        object.__setattr__(self, "seed", seed)

    def stream(self, domain: int, index: int) -> np.random.Generator:
        key = (self.seed << 64) | _low_key(domain, index)
        return np.random.Generator(np.random.Philox(key=key))

    def _normals(self, domain: int, indices, size: int) -> np.ndarray:
        """Row i: the first ``size`` standard normals of substream (domain, indices[i]).

        Bitwise the same as ``stream(domain, indices[i]).standard_normal(size)``
        row by row.  One Philox is rekeyed per row instead of built: a fresh
        Philox has counter 0 and an exhausted buffer (``buffer_pos`` 4), so
        setting that state with the row's key reproduces it.
        """
        out = np.empty((len(indices), size))
        bitgen = np.random.Philox(0)  # any seed: the state is set per row
        gen = np.random.Generator(bitgen)
        key = [0, self.seed]  # [low word, high word]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        for row, index in zip(out, map(int, indices)):
            key[0] = _low_key(domain, index)
            bitgen.state = state
            gen.standard_normal(size, out=row)
        return out

    def subspace(self) -> np.random.Generator:
        return self.stream(_DOM_SUBSPACE, 0)

    def inlier(self, index: int) -> np.random.Generator:
        return self.stream(_DOM_INLIER, index)

    def outlier(self, index: int) -> np.random.Generator:
        return self.stream(_DOM_OUTLIER, index)

    def inlier_center(self, index: int = 0) -> np.random.Generator:
        return self.stream(_DOM_INLIER_CENTER, index)

    def outlier_center(self, index: int = 0) -> np.random.Generator:
        return self.stream(_DOM_OUTLIER_CENTER, index)

    def shuffle(self) -> np.random.Generator:
        return self.stream(_DOM_SHUFFLE, 0)

    def noise(self, column: int) -> np.random.Generator:
        return self.stream(_DOM_NOISE, column)

    def aux(self, index: int) -> np.random.Generator:
        """Experiment-level draws that must not collide with column streams."""
        return self.stream(_DOM_AUX, index)


@dataclass(frozen=True)
class UniformInliers:
    """Inliers uniform on the unit sphere of the planted subspace."""


@dataclass(frozen=True)
class ClusteredInliers:
    """Inliers u + nu * v_i around a random in-subspace center u."""

    nu: float

    def __post_init__(self):
        if not self.nu > 0:
            raise ValidationError(f"nu must be positive, got {self.nu!r}")


@dataclass(frozen=True)
class UnstructuredOutliers:
    """Outliers uniform on the full unit sphere."""


@dataclass(frozen=True)
class ClusteredOutliers:
    """Outliers a + mu * b_i around a random center a, then normalized.

    ``literal_scale`` switches to the fixed-scale form (a + b_i) /
    sqrt(1 + mu^2); after the mandatory renormalization that form no longer
    depends on mu, which is why it is not the default.
    """

    mu: float
    literal_scale: bool = False

    def __post_init__(self):
        if not self.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.mu!r}")


@dataclass(frozen=True)
class BoundedConeOutliers:
    """Outliers rejection-sampled so pairwise angles stay within theta_max."""

    theta_max: float
    within_subspace: bool = False

    def __post_init__(self):
        if not 0.0 < self.theta_max < math.pi / 2.0:
            raise ValidationError(
                f"theta_max must lie in (0, pi/2), got {self.theta_max!r}")


@dataclass(frozen=True)
class MixedOutliers:
    """A random mix of structured and unstructured outliers.

    ``num_clustered`` draws how many of the outliers form a cluster shaped
    as ``ClusteredOutliers(mu)``; the rest are ``UnstructuredOutliers``,
    drawn at outlier substreams after the cluster's.
    """

    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValidationError(f"mu must be positive, got {self.mu!r}")

    def num_clustered(self, streams: ColumnStreams, num_outliers: int) -> int:
        """The cluster's size, uniform on 0..num_outliers under stream aux(0)."""
        return int(streams.aux(0).integers(0, num_outliers + 1))


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
    noise_target: str = "inliers"

    def __post_init__(self):
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
        if self.noise_target not in NOISE_TARGETS:
            raise ValidationError(
                f"noise_target must be one of {NOISE_TARGETS}, got {self.noise_target!r}")

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
    point_snr: np.ndarray | None = None

    @property
    def inlier_indices(self) -> np.ndarray:
        return self.matrix.label_indices(Label.INLIER)

    @property
    def outlier_indices(self) -> np.ndarray:
        return self.matrix.label_indices(Label.OUTLIER)


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


def _unit(vec: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ValidationError("drew a zero vector; cannot normalize")
    return vec / norm


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Scale each row to unit length in place; bitwise ``_unit`` per row.

    ``np.linalg.norm`` of a vector is sqrt(x . x) over contiguous memory,
    so the norms are taken row by row the same way.
    """
    norms = np.array([math.sqrt(row @ row) for row in rows])
    if not norms.all():
        raise ValidationError("drew a zero vector; cannot normalize")
    rows /= norms[:, None]
    return rows


def _span(basis: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Row i: basis @ coords[i], one matrix-vector product per row."""
    out = np.empty((coords.shape[0], basis.shape[0]))
    for g, row in zip(coords, out):
        np.matmul(basis, g, out=row)
    return out


def sample_uniform_inliers(basis: np.ndarray, count: int, streams: ColumnStreams,
                           index_offset: int = 0) -> np.ndarray:
    """Columns U g / ||U g||, uniform on the subspace's unit sphere."""
    coords = streams._normals(_DOM_INLIER, range(index_offset, index_offset + count),
                              basis.shape[1])
    return _unit_rows(_span(basis, coords)).T


def sample_clustered_inliers(basis: np.ndarray, count: int, nu: float,
                             streams: ColumnStreams, index_offset: int = 0) -> np.ndarray:
    """In-subspace cluster: normalize(u + nu * v_i) with u, v_i unit in span(U)."""
    if not nu > 0:
        raise ValidationError(f"nu must be positive, got {nu!r}")
    r = basis.shape[1]
    center = _unit(basis @ streams.inlier_center(index_offset).standard_normal(r))
    coords = streams._normals(_DOM_INLIER, range(index_offset, index_offset + count), r)
    return _unit_rows(center + nu * _unit_rows(_span(basis, coords))).T


def sample_unstructured_outliers(n: int, count: int, streams: ColumnStreams,
                                 index_offset: int = 0) -> np.ndarray:
    """Columns uniform on the full unit sphere."""
    draws = streams._normals(_DOM_OUTLIER, range(index_offset, index_offset + count), n)
    return _unit_rows(draws).T


def sample_clustered_outliers(n: int, count: int, mu: float, streams: ColumnStreams,
                              index_offset: int = 0,
                              literal_scale: bool = False) -> np.ndarray:
    """Cluster of unit vectors around a random center a.

    Default form normalize(a + mu * b_i); ``literal_scale`` uses
    (a + b_i) / sqrt(1 + mu^2) before normalization instead.
    """
    if not mu > 0:
        raise ValidationError(f"mu must be positive, got {mu!r}")
    center = _unit(streams.outlier_center(index_offset).standard_normal(n))
    scale = 1.0 if literal_scale else mu
    draws = streams._normals(_DOM_OUTLIER, range(index_offset, index_offset + count), n)
    raw = center + scale * _unit_rows(draws)
    if literal_scale:
        raw /= math.sqrt(1.0 + mu * mu)
    return _unit_rows(raw).T


def sample_bounded_cone(n: int, count: int, theta_max: float, streams: ColumnStreams,
                        subspace: np.ndarray | None = None,
                        index_offset: int = 0) -> np.ndarray:
    """Unit vectors whose pairwise principal angles all stay within theta_max.

    Rejection sampling with a total candidate budget of 1000 * count; raises
    FeasibilityError carrying the observed acceptance rate when the budget
    runs out (tight cones in high dimension are exponentially unlikely).
    Candidates are drawn ``count`` at a time; candidate k is always outlier
    substream index_offset + k, whatever the batch.
    """
    if not 0.0 < theta_max < math.pi / 2.0:
        raise ValidationError(f"theta_max must lie in (0, pi/2), got {theta_max!r}")
    dim = n if subspace is None else subspace.shape[1]
    cos_min = math.cos(theta_max)
    budget = 1000 * count
    cols = np.empty((n, count))
    if count == 0:
        return cols
    accepted = 0
    for first in range(index_offset, index_offset + budget, count):
        draws = streams._normals(_DOM_OUTLIER, range(first, first + count), dim)
        for x in _unit_rows(draws if subspace is None else _span(subspace, draws)):
            if accepted == 0 or np.all(cols[:, :accepted].T @ x >= cos_min):
                cols[:, accepted] = x
                accepted += 1
                if accepted == count:
                    return cols
    raise FeasibilityError(
        f"accepted {accepted}/{count} cone points in {budget} draws",
        acceptance_rate=accepted / budget)


def _shuffle(parts: list, num_inliers: int,
             streams: ColumnStreams) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle labeled column blocks into one matrix: (values, labels).

    ``parts`` holds the inlier block first and the outlier blocks after it.
    Each block is copied straight into its shuffled columns, with no
    concatenated copy in between.  The matrix is in C order, the order
    DataMatrix stores, because the noise calibration's sums depend on it.
    """
    total = sum(part.shape[1] for part in parts)
    labels = np.full(total, int(Label.OUTLIER), dtype=np.int8)
    labels[:num_inliers] = int(Label.INLIER)
    perm = streams.shuffle().permutation(total)
    slot = np.argsort(perm)  # column i of the parts lands in column slot[i]
    values = np.empty((parts[0].shape[0], total))
    start = 0
    for part in parts:
        values[:, slot[start:start + part.shape[1]]] = part
        start += part.shape[1]
    return values, labels[perm]


def make_dataset(spec: SynthSpec) -> SynthDataset:
    """Build the dataset a SynthSpec describes.

    Draws the columns, labels and shuffles them, and adds noise when the
    spec sets ``snr_db``.
    """
    streams = ColumnStreams(spec.seed)
    basis = random_subspace(spec.n, spec.rank, streams.subspace())
    model = spec.inlier_model
    if isinstance(model, UniformInliers):
        parts = [sample_uniform_inliers(basis, spec.num_inliers, streams)]
    elif isinstance(model, ClusteredInliers):
        parts = [sample_clustered_inliers(basis, spec.num_inliers, model.nu, streams)]
    else:
        raise ValidationError(f"unknown inlier model {model!r}")
    num_out = spec.num_outliers
    if num_out:
        model = spec.outlier_model
        if isinstance(model, UnstructuredOutliers):
            parts.append(sample_unstructured_outliers(spec.n, num_out, streams))
        elif isinstance(model, ClusteredOutliers):
            parts.append(sample_clustered_outliers(
                spec.n, num_out, model.mu, streams, literal_scale=model.literal_scale))
        elif isinstance(model, BoundedConeOutliers):
            parts.append(sample_bounded_cone(
                spec.n, num_out, model.theta_max, streams,
                subspace=basis if model.within_subspace else None))
        elif isinstance(model, MixedOutliers):
            k = model.num_clustered(streams, num_out)
            parts.append(sample_clustered_outliers(spec.n, k, model.mu, streams))
            parts.append(sample_unstructured_outliers(spec.n, num_out - k, streams,
                                                      index_offset=k))
        else:
            raise ValidationError(f"unknown outlier model {model!r}")
    values, labels = _shuffle(parts, spec.num_inliers, streams)
    sigma = point_snr = None
    if spec.snr_db is not None:
        sigma, point_snr = _add_noise(values, labels, spec.snr_db, streams,
                                      spec.noise_target)
    matrix = DataMatrix(values, labels=labels, true_basis=basis)
    return SynthDataset(matrix=matrix, spec=spec, sigma=sigma, point_snr=point_snr)


def _add_noise(values: np.ndarray, labels: np.ndarray, snr_db: float,
               streams: ColumnStreams, target: str) -> tuple[float, np.ndarray]:
    """Add white Gaussian noise, calibrated to a matrix-level SNR in dB, in place.

    sigma = ||M||_F / (10^(snr_db/20) sqrt(n N)) over the full C-ordered
    matrix; the noise lands on the target columns ("inliers" or "all").
    Returns (sigma, point_snr), where point_snr_i = ||m_i||^2 / (n sigma^2)
    of the clean columns.
    """
    n, total = values.shape
    sigma = np.linalg.norm(values) / (10.0 ** (snr_db / 20.0) * math.sqrt(n * total))
    point_snr = np.sum(values * values, axis=0) / (n * sigma * sigma)
    if target == "inliers":
        targets = np.flatnonzero(labels == int(Label.INLIER))
    else:
        targets = np.arange(total)
    noise = streams._normals(_DOM_NOISE, targets, n)
    noise *= sigma
    values[:, targets] += noise.T
    return float(sigma), point_snr


_INLIER_MODELS = {"uniform": UniformInliers, "clustered": ClusteredInliers}
_OUTLIER_MODELS = {"unstructured": UnstructuredOutliers,
                   "clustered": ClusteredOutliers,
                   "bounded-cone": BoundedConeOutliers,
                   "mixed": MixedOutliers}


def _model_to_dict(model) -> dict:
    # the registries reuse names ("clustered"), so search them separately
    for registry in (_INLIER_MODELS, _OUTLIER_MODELS):
        for name, cls in registry.items():
            if type(model) is cls:
                return {"type": name, **dataclasses.asdict(model)}
    raise ValidationError(f"unknown model {model!r}")


def _model_from_dict(d: dict, registry: dict):
    kind = d.get("type")
    if kind not in registry:
        raise ValidationError(f"unknown model type {kind!r}")
    params = {k: v for k, v in d.items() if k != "type"}
    return registry[kind](**params)


def spec_to_dict(spec: SynthSpec) -> dict:
    return {
        "n": spec.n, "num_points": spec.num_points, "rank": spec.rank,
        "gamma": spec.gamma, "seed": spec.seed,
        "inlier_model": _model_to_dict(spec.inlier_model),
        "outlier_model": _model_to_dict(spec.outlier_model),
        "snr_db": spec.snr_db, "noise_target": spec.noise_target,
    }


def spec_from_dict(d: dict) -> SynthSpec:
    return SynthSpec(
        n=d["n"], num_points=d["num_points"], rank=d["rank"], gamma=d["gamma"],
        seed=d["seed"],
        inlier_model=_model_from_dict(d["inlier_model"], _INLIER_MODELS),
        outlier_model=_model_from_dict(d["outlier_model"], _OUTLIER_MODELS),
        snr_db=d.get("snr_db"), noise_target=d.get("noise_target", "inliers"),
    )


def export_dataset(dataset: SynthDataset, csv_path,
                   orientation: str = "points-as-rows",
                   sidecar_path=None) -> str:
    """Write the dataset as CSV plus a JSON sidecar (spec, labels, basis)."""
    write_csv(dataset.matrix, csv_path, orientation)
    if sidecar_path is None:
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
    return str(sidecar_path)


def load_sidecar(path) -> dict:
    """Read a sidecar back; labels become a Label-coded int8 array."""
    with open(path, encoding="utf-8-sig") as fh:
        payload = json.load(fh)
    name_to_code = {lab.name.lower(): np.int8(int(lab)) for lab in Label}
    try:
        labels = np.array([name_to_code[lab] for lab in payload["labels"]], dtype=np.int8)
    except KeyError as exc:
        raise ValidationError(f"unknown label {exc.args[0]!r} in sidecar") from None
    return {
        "orientation": payload.get("orientation", "points-as-rows"),
        "spec": spec_from_dict(payload["spec"]) if "spec" in payload else None,
        "sigma": payload.get("sigma"),
        "labels": labels,
        "true_basis": None if payload.get("true_basis") is None
        else np.asarray(payload["true_basis"], dtype=float),
    }
