"""Channel/traffic scenarios standing in for the vehicular network instances.

Presets are committed as structured-text files under ``scenarios/`` and were
calibrated once so that 1 MB transfers land in the right time band per
scenario (urban a few seconds, highway tens of seconds); see the preset files
for the constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from importlib import resources

from ..cfgfile import field_values, read_cfg
from ..space import VdtpConfig

__all__ = [
    "Scenario",
    "preset",
    "load_scenario",
    "preset_names",
    "human_expert_config",
]


@dataclass(frozen=True)
class Scenario:
    name: str
    bandwidth_bps: float = 5.5e6
    header_bytes: int = 64
    propagation_delay_s: float = 0.002
    base_loss_prob: float = 0.0
    link_up_mean_s: float = math.inf
    link_down_mean_s: float = 1.0
    sessions: int = 20
    file_size_bytes: int = 1_048_576
    density_scale: float = 0.0

    def __post_init__(self):
        if not self.bandwidth_bps > 0:
            raise ValueError("bandwidth_bps must be > 0")
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be >= 0")
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be >= 0")
        if not 0.0 <= self.base_loss_prob <= 1.0:
            raise ValueError("base_loss_prob must be in [0, 1]")
        if not self.link_up_mean_s > 0 or not self.link_down_mean_s > 0:
            raise ValueError("link dwell means must be > 0")
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.file_size_bytes < 1:
            raise ValueError("file_size_bytes must be >= 1")
        if self.density_scale < 0:
            raise ValueError("density_scale must be >= 0")

    def effective_loss(self) -> float:
        """Per-packet loss probability after density scaling.

        The 0.95 cap keeps density scaling away from certain loss; an
        explicit base_loss_prob of 1.0 (total loss, used in degenerate
        tests) is passed through unreduced.
        """
        cap = max(0.95, self.base_loss_prob)
        return min(cap, self.base_loss_prob * (1.0 + self.density_scale))


_PRESET_FILES = {
    "urban": "urban.cfg",
    "urban_a1": "urban.cfg",
    "urban_a2": "urban_a2.cfg",
    "urban_a3": "urban_a3.cfg",
    "highway": "highway.cfg",
}


def _canonical(name: str) -> str:
    # accept Urban, urban_a2, UrbanA2, urban-a2, ... uniformly
    squashed = name.strip().lower().replace("-", "").replace(" ", "").replace("_", "")
    for key in _PRESET_FILES:
        if key.replace("_", "") == squashed:
            return key
    return squashed


def preset_names():
    return sorted(_PRESET_FILES)


def load_scenario(path) -> Scenario:
    """Load a scenario from a structured-text (.cfg) file; unknown keys are refused."""
    cp = read_cfg(path)
    if not cp.has_section("scenario"):
        raise ValueError(f"{path}: missing [scenario] section")
    values = field_values(Scenario, cp["scenario"], f"{path} [scenario]")
    return Scenario(**{"name": "custom", **values})


def preset(name: str) -> Scenario:
    """Return a committed preset scenario by name (urban, highway, urban_a2, ...)."""
    key = _canonical(name)
    if key not in _PRESET_FILES:
        raise ValueError(
            f"unknown scenario preset {name!r}; known: {', '.join(preset_names())}"
        )
    return _load_preset(_PRESET_FILES[key])


@functools.cache
def _load_preset(filename: str) -> Scenario:
    # parsed once per process: the files ship with the package, and a
    # Scenario is frozen, so every caller can share one instance
    ref = resources.files(__package__).joinpath("scenarios", filename)
    with resources.as_file(ref) as path:
        return load_scenario(path)


def human_expert_config(scenario) -> VdtpConfig:
    """Hand-tuned reference configuration used as the comparison baseline.

    Accepts a scenario name or a Scenario instance.
    """
    name = scenario.name if isinstance(scenario, Scenario) else scenario
    key = _canonical(name)
    if key.startswith("highway"):
        return VdtpConfig(25600.0, 10.0, 10.0)
    return VdtpConfig(25600.0, 8.0, 8.0)
