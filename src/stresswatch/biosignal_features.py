"""HRV and skin-conductance features for the stress classifier.

Five numbers summarize each analysis window: RMSSD, SDSD and NN50 from the
beat-to-beat (RR) intervals of the ECG, and the mean height (GSRH) and mean
duration (GSRL) of rising runs in the galvanic skin response.
``extract_window_features`` returns them as one row per window, in the
column order of ``FEATURE_NAMES``, which is also the order the classifier
consumes and the header of the feature CSV.

Unit conventions: RR intervals in milliseconds, conductance in microsiemens,
time in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptySeriesError, InsufficientDataError

DEFAULT_WINDOW_S = 30.0
DEFAULT_OVERLAP = 0.5
DEFAULT_GSR_THRESHOLD_US = 0.05
NN50_THRESHOLD_MS = 50.0
FEATURE_NAMES = ("rmssd_ms", "sdsd_ms", "nn50", "gsrh_uS", "gsrl_s")

MIN_SAMPLE_RATE_HZ = 100.0
MIN_ECG_DURATION_S = 2.0
_REFRACTORY_S = 0.25
_PEAK_SEARCH_S = 0.10


@dataclass(frozen=True, eq=False)
class RRSeries:
    """Successive beat-to-beat intervals in milliseconds."""

    intervals_ms: np.ndarray

    def __post_init__(self):
        iv = np.asarray(self.intervals_ms, dtype=np.float64).reshape(-1)
        if iv.size and (not np.isfinite(iv).all() or (iv <= 0).any()):
            raise ValueError("RR intervals must be finite and positive")
        iv.setflags(write=False)
        object.__setattr__(self, "intervals_ms", iv)

    def __len__(self) -> int:
        return int(self.intervals_ms.size)


@dataclass(frozen=True, eq=False)
class GsrTrace:
    """Skin-conductance samples on a strictly increasing time base."""

    times_s: np.ndarray
    conductance_us: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times_s, dtype=np.float64).reshape(-1)
        g = np.asarray(self.conductance_us, dtype=np.float64).reshape(-1)
        if t.shape != g.shape:
            raise ValueError("time and conductance arrays differ in length")
        if not (np.isfinite(t).all() and np.isfinite(g).all()):
            raise ValueError("GSR trace contains non-finite values")
        if t.size >= 2 and (np.diff(t) <= 0).any():
            raise ValueError("GSR time base must be strictly increasing")
        t.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "times_s", t)
        object.__setattr__(self, "conductance_us", g)

    def __len__(self) -> int:
        return int(self.times_s.size)


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window layout: length in seconds, overlap as a fraction."""

    window_length_s: float = DEFAULT_WINDOW_S
    overlap: float = DEFAULT_OVERLAP

    def __post_init__(self):
        if not self.window_length_s > 0:
            raise ValueError("window_length_s must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ValueError("overlap must lie in [0, 1)")

    @property
    def stride_s(self) -> float:
        return self.window_length_s * (1.0 - self.overlap)


def _diffs(rr: RRSeries, minimum: int, what: str) -> np.ndarray:
    if len(rr) < minimum:
        raise InsufficientDataError(
            f"{what} needs at least {minimum} intervals, got {len(rr)}"
        )
    return np.diff(rr.intervals_ms)


def rmssd(rr: RRSeries) -> float:
    """Root mean square of successive RR-interval differences, in ms."""
    d = _diffs(rr, 2, "rmssd")
    return float(np.sqrt(np.mean(d * d)))


def sdsd(rr: RRSeries) -> float:
    """Population standard deviation of successive differences, in ms.

    The divide-by-N convention is deliberate: it makes
    rmssd^2 == sdsd^2 + mean(diff)^2 an exact identity.
    """
    d = _diffs(rr, 3, "sdsd")
    return float(np.sqrt(np.mean((d - np.mean(d)) ** 2)))


def nn50(rr: RRSeries, threshold_ms: float = NN50_THRESHOLD_MS) -> int:
    """Count of adjacent interval pairs differing by MORE than 50 ms.

    Strict inequality: a difference of exactly 50 ms does not count.
    """
    d = _diffs(rr, 2, "nn50")
    return int(np.count_nonzero(np.abs(d) > threshold_ms))


def detect_r_peaks(signal, sample_rate_hz: float) -> RRSeries:
    """Beat intervals from a raw ECG via a derivative-energy detector.

    The squared first derivative is thresholded at a quarter of its peak;
    each crossing is refined to the signal maximum in the following 100 ms
    and accepted if at least 250 ms after the previous beat. Plenty for
    clean wearable traces; this is not a clinical QRS detector.
    """
    x = np.asarray(signal, dtype=np.float64).reshape(-1)
    if sample_rate_hz < MIN_SAMPLE_RATE_HZ:
        raise InsufficientDataError(
            f"sample rate {sample_rate_hz} Hz is below the "
            f"{MIN_SAMPLE_RATE_HZ} Hz minimum"
        )
    if x.size < MIN_ECG_DURATION_S * sample_rate_hz:
        raise InsufficientDataError(
            f"need at least {MIN_ECG_DURATION_S} s of signal, "
            f"got {x.size / sample_rate_hz:.3g} s"
        )
    if not np.isfinite(x).all():
        raise ValueError("ECG signal contains non-finite values")

    energy = (np.diff(x) * sample_rate_hz) ** 2
    peak_energy = energy.max()
    if peak_energy <= 0.0:
        raise EmptySeriesError("flat signal: no beats detectable")
    threshold = 0.25 * peak_energy
    refractory = int(round(_REFRACTORY_S * sample_rate_hz))
    search = max(1, int(round(_PEAK_SEARCH_S * sample_rate_hz)))

    # candidate c refines to the first maximum of x[c+1 : c+1+search]; the
    # -inf tail keeps every window full length without ever winning
    crossings = np.flatnonzero(energy >= threshold)
    ahead = np.lib.stride_tricks.sliding_window_view(
        np.concatenate((x[1:], np.full(search - 1, -np.inf))), search
    )
    refined = crossings + 1 + np.argmax(ahead[crossings], axis=1)
    # refined peaks never decrease with c, and a repeat is always inside the
    # refractory period, so the pass over distinct peaks keeps the same beats
    peaks: list[int] = []
    last = -refractory
    for j in np.unique(refined).tolist():
        if j - last >= refractory:
            peaks.append(j)
            last = j
    if len(peaks) < 2:
        raise EmptySeriesError("fewer than two beats detected")
    times = np.array(peaks, dtype=np.float64) / sample_rate_hz
    return RRSeries(np.diff(times) * 1000.0)


def gsr_slope_features(
    g: GsrTrace, threshold_us: float = DEFAULT_GSR_THRESHOLD_US
) -> tuple[float, float]:
    """(GSRH, GSRL): mean rise and mean duration of accepted rising runs.

    A run is a maximal strictly-increasing stretch of samples; it is
    accepted when its total rise reaches threshold_us. Returns (0, 0) when
    nothing qualifies, which is a value, not an error.
    """
    x = g.conductance_us
    if x.size < 2:
        return 0.0, 0.0
    rising = (np.diff(x) > 0).astype(np.int8)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], rising, [0]))))
    starts, stops = edges[0::2], edges[1::2]
    rises = x[stops] - x[starts]
    accepted = rises >= threshold_us
    if not accepted.any():
        return 0.0, 0.0
    durations = g.times_s[stops] - g.times_s[starts]
    return float(np.mean(rises[accepted])), float(np.mean(durations[accepted]))


def extract_window_features(
    ecg_times_s,
    ecg_signal,
    gsr: GsrTrace,
    cfg: WindowConfig = WindowConfig(),
    gsr_threshold_us: float = DEFAULT_GSR_THRESHOLD_US,
) -> np.ndarray:
    """Features of every sliding-window position, as a ``(windows, 5)`` array.

    Columns follow ``FEATURE_NAMES``; NN50 is a whole-number float. Window k
    covers [t0 + k*stride, t0 + k*stride + window_length) with t0 the first
    ECG timestamp; positions are emitted while the window fits inside the
    recorded span. Windows whose ECG slice yields no usable beats keep zero
    HRV features instead of aborting the run, so one noisy stretch cannot
    sink a long recording.
    """
    t = np.asarray(ecg_times_s, dtype=np.float64).reshape(-1)
    x = np.asarray(ecg_signal, dtype=np.float64).reshape(-1)
    if t.shape != x.shape:
        raise ValueError("ECG time and value arrays differ in length")
    if t.size < 2:
        raise InsufficientDataError("ECG recording has fewer than 2 samples")
    # written so that a nan time fails it too: searchsorted below needs order
    if not (np.diff(t) > 0).all():
        raise ValueError("ECG time base must be strictly increasing")
    sample_rate = (t.size - 1) / (t[-1] - t[0])
    dt = 1.0 / sample_rate
    span = t[-1] - t[0] + dt  # each sample covers [t, t + dt)
    if cfg.window_length_s > span + 1e-9:
        raise InsufficientDataError(
            f"window of {cfg.window_length_s} s does not fit in a "
            f"{span:.3g} s recording"
        )

    # checked before dividing: a tiny stride asks for more windows than memory holds
    if span - cfg.window_length_s >= t.size * cfg.stride_s:
        raise ConfigError(
            f"a {cfg.window_length_s} s window at overlap {cfg.overlap} gives "
            f"more windows than the {t.size} ECG samples"
        )
    n_windows = int(np.floor((span - cfg.window_length_s) / cfg.stride_s + 1e-9)) + 1
    starts = t[0] + np.arange(n_windows) * cfg.stride_s
    stops = starts + cfg.window_length_s
    # on a strictly increasing time base, [lo, hi) holds exactly the samples
    # with start - 1e-9 <= time < stop - 1e-9
    lo, hi = np.searchsorted(t, starts - 1e-9), np.searchsorted(t, stops - 1e-9)
    glo = np.searchsorted(gsr.times_s, starts - 1e-9)
    ghi = np.searchsorted(gsr.times_s, stops - 1e-9)

    out = np.zeros((n_windows, len(FEATURE_NAMES)))
    for row, a, b, ga, gb in zip(out, lo.tolist(), hi.tolist(), glo.tolist(), ghi.tolist()):
        try:
            rr = detect_r_peaks(x[a:b], sample_rate)
        except (EmptySeriesError, InsufficientDataError):
            pass  # no usable beats: the HRV columns stay zero
        else:
            if len(rr) >= 2:
                row[0], row[2] = rmssd(rr), nn50(rr)
            if len(rr) >= 3:
                row[1] = sdsd(rr)
        if gb - ga >= 2:
            window_trace = GsrTrace(gsr.times_s[ga:gb], gsr.conductance_us[ga:gb])
            row[3:] = gsr_slope_features(window_trace, gsr_threshold_us)
    return out
