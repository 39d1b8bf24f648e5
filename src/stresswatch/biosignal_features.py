"""HRV and skin-conductance features for the stress classifier.

Five numbers summarize each analysis window: RMSSD, SDSD and NN50 from the
beat-to-beat (RR) intervals of the ECG, and the mean height (GSRH) and mean
duration (GSRL) of rising runs in the galvanic skin response.
``extract_window_features`` returns them as one row per window, in the
column order of ``FEATURE_NAMES``, which is also the order the classifier
consumes and the header of the feature CSV.

Every window gets the features its own slices would give, bit for bit, but
the work windows share runs once per recording: the ECG's derivative energy,
each window's peak energy, the threshold crossings and their 100 ms peak
search, and the GSR's rising runs. Per window remain only its threshold
test, the refractory pass, the RR statistics and the GSR means.
``detect_r_peaks`` and ``gsr_slope_features`` are the one-window case of
the same code.

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
# crossings refined per gather: bounds its (block, 100 ms) copy of the signal
_REFINE_BLOCK = 4096


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
            raise ConfigError("window_length_s must be positive")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("overlap must lie in [0, 1)")

    @property
    def stride_s(self) -> float:
        return self.window_length_s * (1.0 - self.overlap)


def _diffs(rr: RRSeries, minimum: int, what: str) -> np.ndarray:
    if len(rr) < minimum:
        raise InsufficientDataError(
            f"{what} needs at least {minimum} intervals, got {len(rr)}"
        )
    return np.diff(rr.intervals_ms)


def _rmssd(d: np.ndarray) -> float:
    return float(np.sqrt(np.mean(d * d)))


def _sdsd(d: np.ndarray) -> float:
    return float(np.sqrt(np.mean((d - np.mean(d)) ** 2)))


def _nn50(d: np.ndarray, threshold_ms: float = NN50_THRESHOLD_MS) -> int:
    return int(np.count_nonzero(np.abs(d) > threshold_ms))


def rmssd(rr: RRSeries) -> float:
    """Root mean square of successive RR-interval differences, in ms."""
    return _rmssd(_diffs(rr, 2, "rmssd"))


def sdsd(rr: RRSeries) -> float:
    """Population standard deviation of successive differences, in ms.

    The divide-by-N convention is deliberate: it makes
    rmssd^2 == sdsd^2 + mean(diff)^2 an exact identity.
    """
    return _sdsd(_diffs(rr, 3, "sdsd"))


def nn50(rr: RRSeries, threshold_ms: float = NN50_THRESHOLD_MS) -> int:
    """Count of adjacent interval pairs differing by MORE than 50 ms.

    Strict inequality: a difference of exactly 50 ms does not count.
    """
    return _nn50(_diffs(rr, 2, "nn50"), threshold_ms)


def _window_beats(x: np.ndarray, sample_rate_hz: float, lo: np.ndarray, hi: np.ndarray) -> list:
    """Beats of every ECG window ``x[lo[k]:hi[k]]``, as ``detect_r_peaks`` finds them.

    Entry k is the window's beat indices into ``x`` (two or more, ascending),
    or the ``InsufficientDataError`` / ``EmptySeriesError`` that
    ``detect_r_peaks`` raises for that window alone. A non-finite sample in a
    window that is long enough, at a rate that is high enough, raises
    ``ValueError``.

    Once per call: the derivative energy, every window's peak energy (one
    ``reduceat``), the steps that reach the lowest threshold of the windows
    holding them, and their refinement over the next 100 ms. Per window: the
    crossings of its own threshold, searched again only where the 100 ms run
    past its last sample, and the 250 ms refractory pass.
    """
    if sample_rate_hz < MIN_SAMPLE_RATE_HZ:
        return [InsufficientDataError(
            f"sample rate {sample_rate_hz} Hz is below the "
            f"{MIN_SAMPLE_RATE_HZ} Hz minimum"
        )] * lo.size
    sizes = hi - lo
    short = sizes < MIN_ECG_DURATION_S * sample_rate_hz
    beats: list = [
        InsufficientDataError(
            f"need at least {MIN_ECG_DURATION_S} s of signal, "
            f"got {size / sample_rate_hz:.3g} s"
        ) if too_short else None
        for size, too_short in zip(sizes.tolist(), short.tolist())
    ]
    usable = np.flatnonzero(~short)
    if usable.size == 0:
        return beats
    lo, hi = lo[usable], hi[usable]

    # energy[i] belongs to the step x[i] -> x[i + 1], so a window's steps are
    # energy[lo:hi - 1]; the last slot only keeps hi - 1 a valid reduceat index
    energy = np.empty(x.size)
    steps = energy[:-1]
    np.subtract(x[1:], x[:-1], out=steps)
    steps *= sample_rate_hz
    np.square(steps, out=steps)
    energy[-1] = -np.inf
    bounds = np.empty(2 * usable.size, dtype=np.intp)
    bounds[0::2], bounds[1::2] = lo, hi - 1
    peak_energy = np.maximum.reduceat(energy, bounds)[0::2]
    # a non-finite sample makes its window's peak nan or inf; an inf peak can
    # also be a finite step that overflows, so look at the samples themselves
    suspect = ~np.isfinite(peak_energy)
    for a, b in zip(lo[suspect].tolist(), hi[suspect].tolist()):
        if not np.isfinite(x[a:b]).all():
            raise ValueError("ECG signal contains non-finite values")
    flat = peak_energy <= 0.0
    for k in usable[flat].tolist():
        beats[k] = EmptySeriesError("flat signal: no beats detectable")
    live = ~flat
    if not live.any():
        return beats
    usable, lo, hi = usable[live], lo[live], hi[live]
    threshold = 0.25 * peak_energy[live]
    refractory = int(round(_REFRACTORY_S * sample_rate_hz))
    search = max(1, int(round(_PEAK_SEARCH_S * sample_rate_hz)))

    # a step is a crossing when it reaches the lowest threshold of the windows
    # that hold it: one quiet window must not make crossings of the steps of
    # every other window. Between two edges, the same windows hold each step.
    crossings = np.flatnonzero(energy >= threshold.min())
    edges = np.unique(np.concatenate((lo, hi - 1)))
    holders = np.empty(2 * edges.size, dtype=np.intp)  # windows [from, to) per edge
    holders[0::2] = np.searchsorted(hi - 1, edges, side="right")
    holders[1::2] = np.searchsorted(lo, edges, side="right")
    lowest = np.minimum.reduceat(np.append(threshold, np.inf), holders)[0::2]
    lowest[holders[0::2] >= holders[1::2]] = np.inf  # a step no window holds
    crossing_energy = energy[crossings]
    held = crossing_energy >= lowest[np.searchsorted(edges, crossings, side="right") - 1]
    crossings, crossing_energy = crossings[held], crossing_energy[held]
    del energy, steps  # the recording-length buffer is done with
    head = crossings[:np.searchsorted(crossings, x.size - search)]
    refined = np.empty_like(crossings)
    ahead = np.lib.stride_tricks.sliding_window_view(x, search)
    for s in range(0, head.size, _REFINE_BLOCK):
        c = head[s:s + _REFINE_BLOCK]
        refined[s:s + c.size] = c + 1 + np.argmax(ahead[c + 1], axis=1)

    # window k's crossings are crossings[first:stop]; from cut on, the search
    # span runs past its last sample hi - 1 and is cut there
    first = np.searchsorted(crossings, lo)
    stop = np.searchsorted(crossings, hi - 1)
    cut = np.clip(np.searchsorted(crossings, hi - search), first, stop)
    for k, b, thr, i, j, m in zip(usable.tolist(), hi.tolist(), threshold.tolist(),
                                  first.tolist(), cut.tolist(), stop.tolist()):
        found = refined[i:j][crossing_energy[i:j] >= thr].tolist()
        for c in crossings[j:m][crossing_energy[j:m] >= thr].tolist():
            found.append(c + 1 + int(np.argmax(x[c + 1:b])))
        # refined peaks never decrease with c, and a repeat is always inside
        # the refractory period, so this pass drops the repeats too
        peaks: list[int] = []
        last = -refractory
        for p in found:
            if p - last >= refractory:
                peaks.append(p)
                last = p
        beats[k] = peaks if len(peaks) >= 2 else EmptySeriesError("fewer than two beats detected")
    return beats


def _rr_ms(peaks: list[int], lo: int, sample_rate_hz: float) -> np.ndarray:
    """RR intervals in ms of beats at indices ``peaks`` of a window starting at ``lo``.

    Beat times count from the window's first sample: indices into the whole
    recording would round differently.
    """
    return np.diff((np.array(peaks) - lo) / sample_rate_hz) * 1000.0


def detect_r_peaks(signal, sample_rate_hz: float) -> RRSeries:
    """Beat intervals from a raw ECG via a derivative-energy detector.

    The squared first derivative is thresholded at a quarter of its peak;
    each crossing is refined to the signal maximum in the following 100 ms
    and accepted if at least 250 ms after the previous beat. Plenty for
    clean wearable traces; this is not a clinical QRS detector.

    This is the one-window case of the detector that
    ``extract_window_features`` runs over all windows of a recording at
    once: the derivative energy, every window's peak, the crossings and
    their 100 ms search once per recording; each window's threshold test,
    the search of a crossing cut short by the window's end, and the
    refractory pass once per window.
    """
    x = np.asarray(signal, dtype=np.float64).reshape(-1)
    (peaks,) = _window_beats(x, sample_rate_hz, np.array([0]), np.array([x.size]))
    if isinstance(peaks, Exception):
        raise peaks
    return RRSeries(_rr_ms(peaks, 0, sample_rate_hz))


def _rising_runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, stops): first and last sample of each maximal strictly
    increasing run of ``x``, in order."""
    rising = (np.diff(x) > 0).astype(np.int8)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], rising, [0]))))
    return edges[0::2], edges[1::2]


def _check_gsr_threshold(threshold_us: float) -> None:
    # NaN or inf would accept no run and zero the GSR columns without a word
    if not np.isfinite(threshold_us):
        raise ConfigError(f"GSR threshold must be finite, got {threshold_us}")


def _run_means(g: GsrTrace, starts, stops, threshold_us: float) -> tuple[float, float]:
    """(GSRH, GSRL) of the runs ``starts[i]..stops[i]`` of ``g``."""
    x = g.conductance_us
    rises = x[stops] - x[starts]
    accepted = rises >= threshold_us
    if not accepted.any():
        return 0.0, 0.0
    durations = g.times_s[stops] - g.times_s[starts]
    return float(np.mean(rises[accepted])), float(np.mean(durations[accepted]))


def gsr_slope_features(
    g: GsrTrace, threshold_us: float = DEFAULT_GSR_THRESHOLD_US
) -> tuple[float, float]:
    """(GSRH, GSRL): mean rise and mean duration of accepted rising runs.

    A run is a maximal strictly-increasing stretch of samples; it is
    accepted when its total rise reaches threshold_us. Returns (0, 0) when
    nothing qualifies, which is a value, not an error. A threshold that is
    not finite raises ``ConfigError``.
    """
    _check_gsr_threshold(threshold_us)
    if len(g) < 2:
        return 0.0, 0.0
    return _run_means(g, *_rising_runs(g.conductance_us), threshold_us)


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

    Each row equals what ``detect_r_peaks`` and ``gsr_slope_features`` give
    on the window's own slices, bit for bit, but the work windows share runs
    once per recording: the derivative energy, every window's peak energy,
    the threshold crossings and their refinement, and the GSR rising runs.
    Per window remain its own threshold, the refractory pass, the RR
    statistics, and the GSR runs clipped to the window's samples.
    A ``gsr_threshold_us`` that is not finite raises ``ConfigError``.
    """
    _check_gsr_threshold(gsr_threshold_us)
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

    beats = _window_beats(x, sample_rate, lo, hi)
    # run_lo:run_hi are the runs that overlap window [ga, gb); clipped to its
    # samples ga..gb - 1, they are the runs of the window's own slice
    run_starts, run_stops = _rising_runs(gsr.conductance_us)
    run_lo = np.searchsorted(run_stops, glo, side="right")
    run_hi = np.searchsorted(run_starts, ghi - 1)

    out = np.zeros((n_windows, len(FEATURE_NAMES)))
    for row, peaks, a, ga, gb, r0, r1 in zip(
        out, beats, lo.tolist(), glo.tolist(), ghi.tolist(), run_lo.tolist(), run_hi.tolist()
    ):
        if not isinstance(peaks, Exception):  # otherwise the HRV columns stay zero
            d = np.diff(_rr_ms(peaks, a, sample_rate))
            if d.size >= 1:
                row[0], row[2] = _rmssd(d), _nn50(d)
            if d.size >= 2:
                row[1] = _sdsd(d)
        if gb - ga >= 2:
            row[3:] = _run_means(
                gsr,
                np.maximum(run_starts[r0:r1], ga),
                np.minimum(run_stops[r0:r1], gb - 1),
                gsr_threshold_us,
            )
    return out
