"""Quality-ladder adaptation driven by the observed delivery rate.

[TZ99] (cited in the paper's sections 1 and 5) couples TCP-friendly
congestion control to a scalable video encoder: the encoder's output rate
follows the allowed transmission rate.  The user-visible consequence of a
*jumpy* allowed rate is frequent quality switches -- each one noticeable.

:class:`QualityAdapter` replays a delivery-rate time series against an
encoding ladder with the standard player policy:

* pick the highest level whose bitrate fits within ``HEADROOM`` of the
  measured rate;
* switch **down** immediately (continuing to send above the available
  rate causes stalls);
* switch **up** only after the rate has supported the higher level for
  ``up_stability`` consecutive seconds (hysteresis against flapping).

The output metrics (mean quality level, switch count, time per level) are
the terms in which the paper's smoothness claim matters to users.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence


@dataclass(frozen=True, order=True)
class EncodingLevel:
    """One rung of the encoding ladder (ordered by bitrate)."""

    bitrate_bps: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.bitrate_bps <= 0:
            raise ValueError("bitrate_bps must be positive")


def standard_ladder() -> List[EncodingLevel]:
    """A typical 2000-era streaming ladder (modem to broadband)."""
    return [
        EncodingLevel(64e3, "audio-only"),
        EncodingLevel(128e3, "thumbnail"),
        EncodingLevel(300e3, "low"),
        EncodingLevel(700e3, "medium"),
        EncodingLevel(1.5e6, "high"),
    ]


@dataclass
class AdaptationResult:
    """Outcome of replaying a rate trace against a ladder.

    Attributes:
        levels: the ladder used (sorted ascending).
        choices: per-sample chosen level index (-1 while the rate supports
            no level at all).
        switches: number of level changes after the first choice.
        mean_level: time-average of the chosen level indices (defined
            samples only).
        time_per_level: seconds spent at each level index.
        tau: seconds per sample of the input trace.
    """

    levels: List[EncodingLevel]
    choices: List[int]
    switches: int
    mean_level: float
    time_per_level: Dict[int, float]
    tau: float

    @property
    def switches_per_minute(self) -> float:
        total = len(self.choices) * self.tau
        return self.switches / (total / 60.0) if total > 0 else 0.0

    def mean_bitrate_bps(self) -> float:
        """Time-averaged encoded bitrate actually selected."""
        total = 0.0
        samples = 0
        for choice in self.choices:
            if choice >= 0:
                total += self.levels[choice].bitrate_bps
                samples += 1
        return total / samples if samples else 0.0


class QualityAdapter:
    """Replay delivery rates against an encoding ladder."""

    #: fraction of the measured rate usable for media (the rest absorbs
    #: jitter and protocol overhead).
    HEADROOM = 0.85

    def __init__(self, up_stability: float = 5.0) -> None:
        """
        Args:
            up_stability: seconds the rate must support a higher level
                before switching up.
        """
        if up_stability < 0:
            raise ValueError("up_stability cannot be negative")
        #: the encoding ladder, lowest bitrate first.
        self.levels: List[EncodingLevel] = sorted(standard_ladder())
        self.up_stability = up_stability

    def _fitting_level(self, rate_bps: float) -> int:
        """Highest ladder index affordable at ``rate_bps`` (or -1)."""
        budget = rate_bps * self.HEADROOM
        best = -1
        for index, level in enumerate(self.levels):
            if level.bitrate_bps <= budget:
                best = index
        return best

    def replay(
        self, rate_series_bps: Sequence[float], tau: float
    ) -> AdaptationResult:
        """Run the policy over a rate trace sampled every ``tau`` seconds."""
        if tau <= 0:
            raise ValueError("tau must be positive")
        choices: List[int] = []
        current = None  # no level chosen yet
        stable_for = 0.0
        switches = 0
        for rate in rate_series_bps:
            fitting = self._fitting_level(float(rate))
            if current is None:
                current = fitting
            elif fitting < current:
                current = fitting        # downswitch: immediate
                stable_for = 0.0
                switches += 1
            elif fitting > current:
                stable_for += tau        # upswitch: needs sustained headroom
                if stable_for >= self.up_stability:
                    current += 1         # climb one rung at a time
                    stable_for = 0.0
                    switches += 1
            else:
                stable_for = 0.0
            choices.append(current)
        defined = [c for c in choices if c is not None and c >= 0]
        time_per_level: Dict[int, float] = {}
        for choice in choices:
            if choice is not None:
                time_per_level[choice] = time_per_level.get(choice, 0.0) + tau
        mean_level = sum(defined) / len(defined) if defined else float("nan")
        return AdaptationResult(
            levels=self.levels,
            choices=[c if c is not None else -1 for c in choices],
            switches=switches,
            mean_level=mean_level,
            time_per_level=time_per_level,
            tau=tau,
        )
