"""Run configuration: flat INI-style files with one section per stage,
plus the two built-in presets.

A configuration fixes the model (dimension, geometry, mode), the initial
datum family, the scheme, the shrinking-annulus sequence, the enabled
checks, and output policy.  Exactly one of the radius and the rate is
given; the other is derived against the admissibility gate.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field

from .solver import SchemeConfig

__all__ = [
    "ConfigError",
    "ModelConfig",
    "InitdataConfig",
    "ContinuationConfig",
    "VerifyConfig",
    "OutputConfig",
    "RunConfig",
    "PRESETS",
    "load_config",
    "preset",
]

ALL_CHECKS = (
    "analytic_residuals",
    "sandwich",
    "monotone",
    "gradient_box",
    "cutoff_inactive",
    "boundary_bands",
    "bernstein",
    "pointwise_gradient",
    "singularity",
    "shape_functional",
    "decay",
    "weak_identity",
    "inner_mass",
    "uniqueness",
    "continuation_cauchy",
)


class ConfigError(ValueError):
    """Malformed configuration; the message carries the section.key path."""


@dataclass(frozen=True)
class ModelConfig:
    n: int = 2
    R: float | None = None
    lam: float | None = None
    lambda_fraction: float = 0.9
    R_fraction: float = 0.9
    amplitude_policy: str = "fit"   # "fit" from the datum, or "fixed"
    amplitude: float = 0.0          # value when fixed; floor when fitting
    amplitude_floor: float = 0.05

    def validate(self):
        if self.R is None and self.lam is None:
            raise ConfigError("model.R or model.lambda: one must be given")
        if self.amplitude_policy not in ("fit", "fixed"):
            raise ConfigError("model.amplitude_policy: must be fit or fixed")


@dataclass(frozen=True)
class InitdataConfig:
    family: str = "mode_deficit"
    deficit_amplitude: float = 0.25
    blend_exponent: float = 2.0


@dataclass(frozen=True)
class ContinuationConfig:
    eps_sequence: tuple = (0.04, 0.02, 0.01, 0.005)
    reference_eps: float = 0.02
    num_nodes: int = 400
    grading_exponent: float = 2.0
    horizon_efolds: float = 5.0
    compact_r_fraction: float = 0.1
    compact_t_start: float = 0.5

    def validate(self):
        seq = self.eps_sequence
        if any(b >= a for a, b in zip(seq, seq[1:])):
            raise ConfigError("continuation.eps_sequence: must strictly decrease")
        if self.reference_eps not in seq:
            raise ConfigError(
                "continuation.reference_eps: must be one of eps_sequence"
            )


@dataclass(frozen=True)
class VerifyConfig:
    enabled: tuple = ("all",)
    bernstein_powers: tuple = (4, 28)
    bernstein_delta_fraction: float = 0.05
    pointwise_power: int = 28
    uniqueness_tol: float = 1e-3
    tol_sandwich: float | None = None   # None: 5 (h^2 + dt)
    tol_grad: float | None = None       # None: 1e-6 + 10 h^2

    def checks(self) -> tuple:
        if "all" in self.enabled:
            return ALL_CHECKS
        unknown = set(self.enabled) - set(ALL_CHECKS)
        if unknown:
            raise ConfigError(f"verify.enabled: unknown checks {sorted(unknown)}")
        return tuple(self.enabled)


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "runs/out"
    save_every: int = 10


@dataclass(frozen=True)
class RunConfig:
    name: str = "custom"
    model: ModelConfig = field(default_factory=ModelConfig)
    initdata: InitdataConfig = field(default_factory=InitdataConfig)
    scheme: SchemeConfig = field(default_factory=SchemeConfig)
    continuation: ContinuationConfig = field(default_factory=ContinuationConfig)
    verify: VerifyConfig = field(default_factory=VerifyConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.continuation.validate()
        self.verify.checks()
        return self

    def canonical_text(self) -> str:
        """Deterministic INI rendering used for hashing and the manifest."""
        cp = configparser.ConfigParser()
        cp["run"] = {"name": self.name}
        cp["model"] = {
            "n": str(self.model.n),
            "lambda_fraction": repr(self.model.lambda_fraction),
            "R_fraction": repr(self.model.R_fraction),
            "amplitude_policy": self.model.amplitude_policy,
            "amplitude": repr(self.model.amplitude),
            "amplitude_floor": repr(self.model.amplitude_floor),
        }
        if self.model.R is not None:
            cp["model"]["R"] = repr(self.model.R)
        if self.model.lam is not None:
            cp["model"]["lambda"] = repr(self.model.lam)
        cp["initdata"] = {
            "family": self.initdata.family,
            "deficit_amplitude": repr(self.initdata.deficit_amplitude),
            "blend_exponent": repr(self.initdata.blend_exponent),
        }
        cp["scheme"] = {
            "time_stepper": self.scheme.time_stepper,
            "dt": repr(self.scheme.dt_initial),
            "dt_control": str(self.scheme.dt_control),
            "newton_tol": repr(self.scheme.newton_tol),
            "newton_max_iter": str(self.scheme.newton_max_iter),
        }
        cp["continuation"] = {
            "eps_sequence": ", ".join(repr(e) for e in self.continuation.eps_sequence),
            "reference_eps": repr(self.continuation.reference_eps),
            "num_nodes": str(self.continuation.num_nodes),
            "grading_exponent": repr(self.continuation.grading_exponent),
            "horizon_efolds": repr(self.continuation.horizon_efolds),
            "compact_r_fraction": repr(self.continuation.compact_r_fraction),
            "compact_t_start": repr(self.continuation.compact_t_start),
        }
        cp["verify"] = {
            "enabled": ", ".join(self.verify.enabled),
            "bernstein_powers": ", ".join(str(p) for p in self.verify.bernstein_powers),
            "bernstein_delta_fraction": repr(self.verify.bernstein_delta_fraction),
            "pointwise_power": str(self.verify.pointwise_power),
            "uniqueness_tol": repr(self.verify.uniqueness_tol),
        }
        for key in ("tol_sandwich", "tol_grad"):
            if getattr(self.verify, key) is not None:
                cp["verify"][key] = repr(getattr(self.verify, key))
        cp["output"] = {
            "directory": self.output.directory,
            "save_every": str(self.output.save_every),
        }
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    def content_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()


def _get(section, key, cast, default, where):
    raw = section.get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.{key}: {exc}") from None


def _floats(raw: str) -> tuple:
    return tuple(float(x) for x in raw.replace(",", " ").split())


def _strings(raw: str) -> tuple:
    return tuple(x for x in raw.replace(",", " ").split())


def _ints(raw: str) -> tuple:
    return tuple(int(x) for x in raw.replace(",", " ").split())


def load_config(path_or_text, name: str | None = None) -> RunConfig:
    """Parse a run configuration from an INI file path or literal text."""
    cp = configparser.ConfigParser()
    text = None
    try:
        if "\n" in str(path_or_text) or "=" in str(path_or_text):
            text = str(path_or_text)
            cp.read_string(text)
        else:
            read = cp.read(str(path_or_text))
            if not read:
                raise ConfigError(f"config file not found: {path_or_text}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    m = cp["model"] if cp.has_section("model") else {}
    model = ModelConfig(
        n=_get(m, "n", int, 2, "model"),
        R=_get(m, "R", float, None, "model"),
        lam=_get(m, "lambda", float, None, "model"),
        lambda_fraction=_get(m, "lambda_fraction", float, 0.9, "model"),
        R_fraction=_get(m, "R_fraction", float, 0.9, "model"),
        amplitude_policy=_get(m, "amplitude_policy", str, "fit", "model"),
        amplitude=_get(m, "amplitude", float, 0.0, "model"),
        amplitude_floor=_get(m, "amplitude_floor", float, 0.05, "model"),
    )
    i = cp["initdata"] if cp.has_section("initdata") else {}
    init = InitdataConfig(
        family=_get(i, "family", str, "mode_deficit", "initdata"),
        deficit_amplitude=_get(i, "deficit_amplitude", float, 0.25, "initdata"),
        blend_exponent=_get(i, "blend_exponent", float, 2.0, "initdata"),
    )
    s = cp["scheme"] if cp.has_section("scheme") else {}
    try:
        scheme = SchemeConfig(
            time_stepper=_get(s, "time_stepper", str, "implicit_euler", "scheme"),
            dt_initial=_get(s, "dt", float, 1e-3, "scheme"),
            dt_control=_get(s, "dt_control", int, 6, "scheme"),
            newton_tol=_get(s, "newton_tol", float, 1e-11, "scheme"),
            newton_max_iter=_get(s, "newton_max_iter", int, 14, "scheme"),
        )
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from None
    c = cp["continuation"] if cp.has_section("continuation") else {}
    cont = ContinuationConfig(
        eps_sequence=_get(c, "eps_sequence", _floats, (0.04, 0.02, 0.01, 0.005),
                          "continuation"),
        reference_eps=_get(c, "reference_eps", float, 0.02, "continuation"),
        num_nodes=_get(c, "num_nodes", int, 400, "continuation"),
        grading_exponent=_get(c, "grading_exponent", float, 2.0, "continuation"),
        horizon_efolds=_get(c, "horizon_efolds", float, 5.0, "continuation"),
        compact_r_fraction=_get(c, "compact_r_fraction", float, 0.1, "continuation"),
        compact_t_start=_get(c, "compact_t_start", float, 0.5, "continuation"),
    )
    v = cp["verify"] if cp.has_section("verify") else {}
    ver = VerifyConfig(
        enabled=_get(v, "enabled", _strings, ("all",), "verify"),
        bernstein_powers=_get(v, "bernstein_powers", _ints, (4, 28), "verify"),
        bernstein_delta_fraction=_get(v, "bernstein_delta_fraction", float, 0.05,
                                      "verify"),
        pointwise_power=_get(v, "pointwise_power", int, 28, "verify"),
        uniqueness_tol=_get(v, "uniqueness_tol", float, 1e-3, "verify"),
        tol_sandwich=_get(v, "tol_sandwich", float, None, "verify"),
        tol_grad=_get(v, "tol_grad", float, None, "verify"),
    )
    o = cp["output"] if cp.has_section("output") else {}
    out = OutputConfig(
        directory=_get(o, "directory", str, "runs/out", "output"),
        save_every=_get(o, "save_every", int, 10, "output"),
    )
    run_name = name or (cp["run"]["name"] if cp.has_section("run") and
                        "name" in cp["run"] else "custom")
    return RunConfig(
        name=run_name, model=model, initdata=init, scheme=scheme,
        continuation=cont, verify=ver, output=out,
    ).validate()


# Presets: the n = 2 configuration sits close to the tight end of the
# dimension-only radius bound; n = 3 unlocks the distributional identity.
# The n = 3 radius is chosen so the decay horizon 5 / lam^2 comfortably
# exceeds the compact window start of 0.5.
PRESETS = {
    "n2-standard": RunConfig(
        name="n2-standard",
        model=ModelConfig(n=2, R=0.6),
        initdata=InitdataConfig("mode_deficit", 0.25, 2.0),
        continuation=ContinuationConfig(
            eps_sequence=(0.04, 0.02, 0.01, 0.005), reference_eps=0.02,
        ),
        output=OutputConfig(directory="runs/n2-standard"),
    ),
    # continuation_cauchy is left out for n = 3: the inner-boundary influence
    # on the compact window scales like eps^(n - 3/2 + nu) ~ eps^3.1, which
    # puts consecutive differences at the per-grid discretization floor
    # (~2e-5) where their ordering is noise; the check is asserted on the
    # n = 2 preset, whose signal sits well above that floor.
    "n3-weak": RunConfig(
        name="n3-weak",
        model=ModelConfig(n=3, R=1.5),
        initdata=InitdataConfig("mode_deficit", 0.2, 2.0),
        continuation=ContinuationConfig(
            eps_sequence=(0.04, 0.02, 0.01), reference_eps=0.02,
        ),
        verify=VerifyConfig(
            enabled=tuple(c for c in ALL_CHECKS if c != "continuation_cauchy"),
        ),
        output=OutputConfig(directory="runs/n3-weak"),
    ),
}


def preset(name: str) -> RunConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
