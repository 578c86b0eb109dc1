"""Estimator and selector tables, and the declarative fusion configuration.

The paper's comparison structure — the MLE baseline (Eq. 10–11) against
the proposed BMF MAP estimator (Eq. 31–32), plus the prior art it extends
(univariate BMF of Gu et al., Bernoulli-yield BMF of Fang et al.) and the
prior-free shrinkage baselines — implies a *family* of interchangeable
moment estimators.  This module makes that family explicit:

* estimators live in one module-level table under short string names
  (``"mle"``, ``"bmf"``, ``"robust-bmf"``, ``"ledoit-wolf"``, ...), each
  with a factory and typed metadata (:class:`EstimatorEntry`):
  :func:`register_estimator` adds one, :func:`estimator_entry` looks one
  up, :func:`make_estimator` builds one and :func:`available_estimators`
  lists them;
* the (kappa0, v0) search strategies live in the selector table next to
  it (:func:`register_selector`, :func:`make_selector`,
  :func:`available_selectors`); ``"fixed"`` is the one reserved name;
* an :class:`EstimatorSpec` names an estimator plus its constructor
  parameters and is JSON-serializable, so experiment method lists and CLI
  invocations become *config*, not code;
* a :class:`FusionConfig` bundles everything one run of Algorithm 1 needs
  — estimator spec, hyper-parameter selector, CV fold count, search grid,
  preprocessing switch, seed — and round-trips losslessly through
  dict/JSON (see :mod:`repro.io`), with a stable :meth:`content hash
  <FusionConfig.config_hash>` for provenance tracking.  It is the one way
  to configure :class:`~repro.core.pipeline.FusionPipeline`.

Adding a new estimator is a one-file operation: implement the
:class:`~repro.core.estimators.MomentEstimator` protocol, call
:func:`register_estimator`, and it is immediately usable from the
pipeline, every experiment sweep, and the CLI — none of those layers
name concrete classes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.estimators import MomentEstimator
from repro.core.hypergrid import HyperParameterGrid
from repro.core.prior import PriorKnowledge
from repro.exceptions import (
    ConfigError,
    DimensionError,
    HyperParameterError,
    UnknownEstimatorError,
)
from repro.schemas import canonical_json

__all__ = [
    "EstimatorSpec",
    "GridSpec",
    "FusionConfig",
    "EstimatorEntry",
    "register_estimator",
    "estimator_entry",
    "make_estimator",
    "available_estimators",
    "register_selector",
    "make_selector",
    "available_selectors",
]

#: JSON-safe scalar accepted in spec parameter dicts.
ParamValue = Any


def _canonical_name(name: str) -> str:
    """Registry names are hyphenated; accept underscore spellings too."""
    return name.strip().lower().replace("_", "-")


# ---------------------------------------------------------------------------
# estimator spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EstimatorSpec:
    """A registry estimator name plus its constructor parameters.

    Instances are callable with a fitted
    :class:`~repro.core.prior.PriorKnowledge` (or ``None``), returning a
    fresh estimator — the same factory signature the experiment sweeps
    always used, so a spec drops in anywhere a factory was accepted.
    """

    name: str
    params: Dict[str, ParamValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigError(f"estimator spec name must be a non-empty string, got {self.name!r}")
        object.__setattr__(self, "name", _canonical_name(self.name))
        object.__setattr__(self, "params", dict(self.params))

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation ``{"name": ..., "params": {...}}``."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EstimatorSpec":
        """Inverse of :meth:`to_dict`; tolerates a bare ``{"name": ...}``."""
        if isinstance(payload, str):
            return cls(name=payload)
        if "name" not in payload:
            raise ConfigError(f"estimator spec payload missing 'name': {payload!r}")
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigError(f"estimator spec 'params' must be a mapping, got {params!r}")
        return cls(name=str(payload["name"]), params=dict(params))

    def with_params(self, **params: ParamValue) -> "EstimatorSpec":
        """A copy with extra/overridden constructor parameters."""
        merged = dict(self.params)
        merged.update(params)
        return EstimatorSpec(name=self.name, params=merged)

    # -- factory protocol ----------------------------------------------
    def __call__(self, prior: Optional[PriorKnowledge] = None) -> MomentEstimator:
        return make_estimator(self, prior=prior)


# ---------------------------------------------------------------------------
# hyper-parameter grid spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class GridSpec:
    """Serializable recipe for a :class:`HyperParameterGrid`.

    The concrete grid depends on the metric dimensionality ``d`` (the
    ``v0 > d`` constraint), which is only known once the prior is fitted —
    so configs carry this recipe and the pipeline materialises it.
    """

    kind: str = "paper-default"
    n_kappa: int = 12
    n_v: int = 12
    upper: float = 1000.0

    def __post_init__(self) -> None:
        kind = _canonical_name(self.kind)
        if kind not in ("paper-default", "linear"):
            raise ConfigError(
                f"grid kind must be 'paper-default' or 'linear', got {self.kind!r}"
            )
        object.__setattr__(self, "kind", kind)
        if self.n_kappa < 1 or self.n_v < 1:
            raise ConfigError("grid axis sizes must be >= 1")

    def materialize(self, dim: int) -> HyperParameterGrid:
        """Build the concrete grid for ``d = dim``."""
        if self.kind == "linear":
            return HyperParameterGrid.linear(
                dim, n_kappa=self.n_kappa, n_v=self.n_v, upper=self.upper
            )
        return HyperParameterGrid.paper_default(
            dim, n_kappa=self.n_kappa, n_v=self.n_v, upper=self.upper
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "n_kappa": int(self.n_kappa),
            "n_v": int(self.n_v),
            "upper": float(self.upper),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridSpec":
        try:
            return cls(
                kind=str(payload.get("kind", "paper-default")),
                n_kappa=int(payload.get("n_kappa", 12)),
                n_v=int(payload.get("n_v", 12)),
                upper=float(payload.get("upper", 1000.0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed grid spec payload: {payload!r}") from exc


# ---------------------------------------------------------------------------
# fusion config
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FusionConfig:
    """Everything one fusion run needs, as declarative, serializable data.

    Attributes
    ----------
    estimator:
        Which registry estimator to run, with constructor parameters.
    selector:
        Hyper-parameter selection policy for estimators that take
        ``(kappa0, v0)``: ``"cv"`` (the paper's two-dimensional Q-fold
        cross validation), ``"evidence"`` (fold-free marginal likelihood),
        or ``"fixed"`` (pin :attr:`kappa0`/:attr:`v0`).  Custom selectors
        registered via :func:`register_selector` are addressed by name.
    kappa0, v0:
        Pinned hyper-parameters, used when ``selector == "fixed"``.
    n_folds:
        CV fold count ``Q`` (Sec. 4.2).
    grid:
        Search-grid recipe; ``None`` means the paper-default grid.
    shift_scale:
        Apply the Sec. 4.1 shift/scale preprocessing (the paper's flow).
    seed:
        Optional base seed; when set, an unseeded ``estimate`` call derives
        its generator from it, making the whole run reproducible from the
        config alone.
    """

    estimator: EstimatorSpec = field(default_factory=lambda: EstimatorSpec("bmf"))
    selector: str = "cv"
    kappa0: Optional[float] = None
    v0: Optional[float] = None
    n_folds: int = 4
    grid: Optional[GridSpec] = None
    shift_scale: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.estimator, str):
            object.__setattr__(self, "estimator", EstimatorSpec(self.estimator))
        object.__setattr__(self, "selector", _canonical_name(self.selector))
        if (self.kappa0 is None) != (self.v0 is None):
            raise HyperParameterError(
                "kappa0 and v0 must be supplied together or both left None"
            )
        if self.selector == "fixed" and self.kappa0 is None:
            raise HyperParameterError(
                "selector 'fixed' requires kappa0 and v0 to be set"
            )
        if self.n_folds < 2:
            raise ConfigError(f"n_folds must be >= 2, got {self.n_folds}")

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict; the exact inverse of :meth:`from_dict`."""
        return {
            "estimator": self.estimator.to_dict(),
            "selector": self.selector,
            "kappa0": None if self.kappa0 is None else float(self.kappa0),
            "v0": None if self.v0 is None else float(self.v0),
            "n_folds": int(self.n_folds),
            "grid": None if self.grid is None else self.grid.to_dict(),
            "shift_scale": bool(self.shift_scale),
            "seed": None if self.seed is None else int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FusionConfig":
        if not isinstance(payload, Mapping):
            raise ConfigError(f"fusion config payload must be a mapping, got {payload!r}")
        unknown = set(payload) - {
            "estimator", "selector", "kappa0", "v0", "n_folds", "grid",
            "shift_scale", "seed",
        }
        if unknown:
            raise ConfigError(f"fusion config payload has unknown fields: {sorted(unknown)}")
        grid = payload.get("grid")
        return cls(
            estimator=EstimatorSpec.from_dict(payload.get("estimator", "bmf")),
            selector=str(payload.get("selector", "cv")),
            kappa0=None if payload.get("kappa0") is None else float(payload["kappa0"]),
            v0=None if payload.get("v0") is None else float(payload["v0"]),
            n_folds=int(payload.get("n_folds", 4)),
            grid=None if grid is None else GridSpec.from_dict(grid),
            shift_scale=bool(payload.get("shift_scale", True)),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FusionConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"fusion config is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def config_hash(self) -> str:
        """Stable 12-hex-digit content hash for provenance records."""
        encoded = canonical_json(self.to_dict()).encode("utf-8")
        return hashlib.sha256(encoded).hexdigest()[:12]

    def replace(self, **changes: Any) -> "FusionConfig":
        """A copy with the given fields replaced (dataclass semantics)."""
        return replace(self, **changes)


# ---------------------------------------------------------------------------
# estimator table
# ---------------------------------------------------------------------------
#: Factory signature: ``factory(prior, **params) -> MomentEstimator``.
#: ``prior`` is ``None`` for estimators with ``requires_prior=False``.
EstimatorFactory = Callable[..., MomentEstimator]


@dataclass(frozen=True)
class EstimatorEntry:
    """Registered estimator: factory plus typed capability metadata.

    ``accepts_hyperparams`` marks the normal-Wishart family whose
    ``(kappa0, v0)`` the pipeline can resolve;
    ``data_kind`` records the sample layout the estimator consumes
    (``"multivariate"`` (n, d) rows, ``"univariate"`` scalar metric,
    ``"binary"`` pass/fail indicators).
    """

    name: str
    factory: EstimatorFactory
    summary: str = ""
    requires_prior: bool = True
    accepts_hyperparams: bool = False
    data_kind: str = "multivariate"


#: The one estimator table: canonical name -> :class:`EstimatorEntry`.
_ESTIMATORS: Dict[str, EstimatorEntry] = {}


def register_estimator(
    name: str,
    factory: EstimatorFactory,
    summary: str = "",
    requires_prior: bool = True,
    accepts_hyperparams: bool = False,
    data_kind: str = "multivariate",
) -> EstimatorEntry:
    """Register ``factory`` under ``name`` (hyphen-canonicalised)."""
    key = _canonical_name(name)
    if not key:
        raise ConfigError("estimator name must be non-empty")
    if data_kind not in ("multivariate", "univariate", "binary"):
        raise ConfigError(
            f"data_kind must be multivariate/univariate/binary, got {data_kind!r}"
        )
    if key in _ESTIMATORS:
        raise ConfigError(f"estimator {key!r} is already registered")
    entry = EstimatorEntry(
        name=key,
        factory=factory,
        summary=summary,
        requires_prior=requires_prior,
        accepts_hyperparams=accepts_hyperparams,
        data_kind=data_kind,
    )
    _ESTIMATORS[key] = entry
    return entry


def estimator_entry(name: str) -> EstimatorEntry:
    """Look up a registration; unknown names list what *is* available."""
    key = _canonical_name(name)
    if key not in _ESTIMATORS:
        raise UnknownEstimatorError(
            f"unknown estimator {name!r}; available: {', '.join(available_estimators())}"
        )
    return _ESTIMATORS[key]


def make_estimator(
    spec: "EstimatorSpec | str",
    prior: Optional[PriorKnowledge] = None,
    kappa0: Optional[float] = None,
    v0: Optional[float] = None,
) -> MomentEstimator:
    """Build a fresh estimator by registry name or :class:`EstimatorSpec`.

    ``kappa0``/``v0`` are *defaults* injected for hyper-parameter-aware
    estimators (the pipeline passes its resolved values); explicit spec
    params always win.
    """
    if isinstance(spec, str):
        spec = EstimatorSpec(spec)
    entry = estimator_entry(spec.name)
    if entry.requires_prior and prior is None:
        raise ConfigError(f"estimator {spec.name!r} requires a fitted PriorKnowledge")
    kwargs = dict(spec.params)
    if entry.accepts_hyperparams:
        if kappa0 is not None:
            kwargs.setdefault("kappa0", kappa0)
        if v0 is not None:
            kwargs.setdefault("v0", v0)
    return entry.factory(prior, **kwargs)


def available_estimators() -> List[str]:
    """Sorted names usable with :func:`make_estimator` / ``fuse --estimator``."""
    return sorted(_ESTIMATORS)


# The built-in factories import their classes lazily: the registry is
# imported by repro.core's __init__ before most estimator modules finish
# loading, and deferred imports keep that order irrelevant.
def _make_mle(prior: Optional[PriorKnowledge] = None, **params: Any) -> MomentEstimator:
    from repro.core.mle import MLEstimator

    return MLEstimator(**params)


def _make_bmf(prior: Optional[PriorKnowledge] = None, **params: Any) -> MomentEstimator:
    from repro.core.bmf import BMFEstimator

    return BMFEstimator(prior, **params)


def _make_robust_bmf(prior: Optional[PriorKnowledge] = None, **params: Any) -> MomentEstimator:
    # Lazy upward import: extensions subclass core's estimators, so the
    # registry's built-in catalogue can only name them via a deferred
    # function-scope import — a module-level one would be a real cycle.
    from repro.extensions.robust import RobustBMFEstimator  # reprolint: disable=RPL003 -- plugin factory

    return RobustBMFEstimator(prior, **params)


def _make_sequential_bmf(
    prior: Optional[PriorKnowledge] = None,
    kappa0: Optional[float] = None,
    v0: Optional[float] = None,
) -> MomentEstimator:
    # By conjugacy a row-by-row stream ends at the batch MAP, so streaming
    # BMF is pinned BMF, by default at the weakly-informative corner (1, d + 1).
    from repro.core.bmf import BMFEstimator

    return BMFEstimator(
        prior,
        kappa0=1.0 if kappa0 is None else kappa0,
        v0=prior.dim + 1.0 if v0 is None else v0,
    )


def _make_univariate_bmf(
    prior: Optional[PriorKnowledge] = None, kappa0: float = 1.0, alpha0: float = 2.0
) -> MomentEstimator:
    # Reference [7]'s normal-gamma BMF is Eq. 31-32 at d = 1 with v0 = 2 alpha0
    # (tests/core/normal_gamma_oracle.py reproduces it).
    from repro.core.bmf import BMFEstimator

    if prior.dim != 1:
        raise DimensionError(f"univariate BMF needs a 1-D prior, got d = {prior.dim}")
    return BMFEstimator(prior, kappa0=kappa0, v0=2.0 * alpha0)


def _make_bmf_bd(prior: Optional[PriorKnowledge] = None, **params: Any) -> MomentEstimator:
    from repro.core.bmf_bd import BernoulliMomentEstimator

    return BernoulliMomentEstimator(prior, **params)


def _make_shrinkage(kind: str) -> EstimatorFactory:
    def factory(prior: Optional[PriorKnowledge] = None, **params: Any) -> MomentEstimator:
        from repro.core.baselines import ShrinkageEstimator

        return ShrinkageEstimator(kind, **params)

    return factory


register_estimator(
    "mle",
    _make_mle,
    summary="Maximum-likelihood moments, the paper's baseline (Eq. 10-11)",
    requires_prior=False,
)
register_estimator(
    "bmf",
    _make_bmf,
    summary="Multivariate Bayesian model fusion MAP moments (Eq. 31-32)",
    accepts_hyperparams=True,
)
register_estimator(
    "robust-bmf",
    _make_robust_bmf,
    summary="BMF with a prior-based Mahalanobis outlier gate",
    accepts_hyperparams=True,
)
register_estimator(
    "sequential-bmf",
    _make_sequential_bmf,
    summary="Pinned BMF at (1, d + 1): a row-by-row stream's final state",
    accepts_hyperparams=True,
)
register_estimator(
    "univariate-bmf",
    _make_univariate_bmf,
    summary="Single-metric normal-gamma BMF (Gu et al.): pinned d = 1 BMF, v0 = 2 alpha0",
    data_kind="univariate",
)
register_estimator(
    "bmf-bd",
    _make_bmf_bd,
    summary="Beta-Bernoulli yield fusion on pass/fail data (Fang et al.)",
    requires_prior=False,
    data_kind="binary",
)
register_estimator(
    "ledoit-wolf",
    _make_shrinkage("ledoit_wolf"),
    summary="Prior-free Ledoit-Wolf shrinkage towards scaled identity",
    requires_prior=False,
)
register_estimator(
    "oas",
    _make_shrinkage("oas"),
    summary="Prior-free Oracle Approximating Shrinkage covariance",
    requires_prior=False,
)
register_estimator(
    "diagonal-shrinkage",
    _make_shrinkage("diagonal"),
    summary="Convex shrinkage of the sample covariance towards its diagonal",
    requires_prior=False,
)


# ---------------------------------------------------------------------------
# hyper-parameter selector table (Algorithm 1's (kappa0, v0) search; the
# pipeline and BMFEstimator both dispatch through make_selector)
# ---------------------------------------------------------------------------
#: Selector factory: ``(prior, grid, n_folds) -> object with .select(data, rng)``
#: returning a result exposing ``.kappa0`` and ``.v0``.
SelectorFactory = Callable[[PriorKnowledge, HyperParameterGrid, int], Any]

_SELECTORS: Dict[str, SelectorFactory] = {}


def register_selector(name: str, factory: SelectorFactory) -> None:
    """Register a hyper-parameter search strategy under ``name``."""
    key = _canonical_name(name)
    if key == "fixed":
        raise ConfigError("selector name 'fixed' is reserved")
    if key in _SELECTORS:
        raise ConfigError(f"selector {key!r} is already registered")
    _SELECTORS[key] = factory


def make_selector(
    name: str, prior: PriorKnowledge, grid: HyperParameterGrid, n_folds: int
) -> Any:
    """Build a registered selector; unknown names list the alternatives."""
    key = _canonical_name(name)
    if key not in _SELECTORS:
        raise UnknownEstimatorError(
            f"unknown selector {name!r}; available: "
            f"{', '.join(available_selectors())} (plus 'fixed')"
        )
    return _SELECTORS[key](prior, grid, n_folds)


def available_selectors() -> List[str]:
    """Sorted search-based selector names (excludes 'fixed')."""
    return sorted(_SELECTORS)


def _make_cv_selector(prior: PriorKnowledge, grid: HyperParameterGrid, n_folds: int) -> Any:
    from repro.core.crossval import TwoDimensionalCV

    return TwoDimensionalCV(prior, grid, n_folds=n_folds)


def _make_evidence_selector(prior: PriorKnowledge, grid: HyperParameterGrid, n_folds: int) -> Any:
    from repro.core.evidence import EvidenceSelector

    return EvidenceSelector(prior, grid)


register_selector("cv", _make_cv_selector)
register_selector("evidence", _make_evidence_selector)
