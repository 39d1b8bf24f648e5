"""Tests for HRV metrics, beat detection, GSR run features and windowing.

The HRV and GSR oracles are plain Python loops written straight from the
definitions; the production numpy paths must agree to float precision.
Beat-detector tests use synthetic spike trains whose peak indices are known
exactly, so expected RR intervals are index arithmetic, not approximations.
The vectorized detector and the searchsorted windowing are also held to
their former loop forms, kept here as oracles and compared exactly.
"""

import math

import numpy as np
import pytest

from stresswatch import (
    FEATURE_NAMES,
    EmptySeriesError,
    GsrTrace,
    InsufficientDataError,
    RRSeries,
    WindowConfig,
    detect_r_peaks,
    extract_window_features,
    gsr_slope_features,
    nn50,
    rmssd,
    sdsd,
)
from stresswatch.biosignal_features import DEFAULT_GSR_THRESHOLD_US


def hrv_oracle(iv):
    """rmssd / sdsd / nn50 from the definitions, pure Python."""
    d = [iv[k + 1] - iv[k] for k in range(len(iv) - 1)]
    r = math.sqrt(sum(x * x for x in d) / len(d))
    m = sum(d) / len(d)
    s = math.sqrt(sum((x - m) ** 2 for x in d) / len(d))
    n = sum(1 for x in d if abs(x) > 50.0)
    return r, s, n


def gsr_oracle(t, g, threshold):
    """Maximal strictly-rising runs by linear scan."""
    runs = []
    i, n = 0, len(g)
    while i < n - 1:
        if g[i + 1] > g[i]:
            j = i
            while j < n - 1 and g[j + 1] > g[j]:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    kept = [(i, j) for i, j in runs if g[j] - g[i] >= threshold]
    if not kept:
        return 0.0, 0.0
    rises = [g[j] - g[i] for i, j in kept]
    durs = [t[j] - t[i] for i, j in kept]
    return sum(rises) / len(rises), sum(durs) / len(durs)


def per_crossing_r_peaks(signal, fs):
    """The detector as a loop: refine each above-threshold sample on its own."""
    x = np.asarray(signal, dtype=np.float64)
    if fs < 100.0:
        raise InsufficientDataError("rate")
    if x.size < 2.0 * fs:
        raise InsufficientDataError("short")
    if not np.isfinite(x).all():
        raise ValueError("non-finite")
    energy = (np.diff(x) * fs) ** 2
    peak_energy = energy.max()
    if peak_energy <= 0.0:
        raise EmptySeriesError("flat")
    threshold = 0.25 * peak_energy
    refractory = int(round(0.25 * fs))
    search = max(1, int(round(0.10 * fs)))
    peaks = []
    last = -refractory
    for c in np.flatnonzero(energy >= threshold):
        stop = min(c + 1 + search, x.size)
        j = c + 1 + int(np.argmax(x[c + 1:stop]))
        if j - last >= refractory:
            peaks.append(j)
            last = j
    if len(peaks) < 2:
        raise EmptySeriesError("fewer than two beats")
    return RRSeries(np.diff(np.array(peaks, dtype=np.float64) / fs) * 1000.0)


def masked_window_features(t, x, gsr, cfg, threshold=DEFAULT_GSR_THRESHOLD_US):
    """The windowing as a loop: two full-length boolean masks per window,
    one ``FEATURE_NAMES`` row each."""
    rate = (t.size - 1) / (t[-1] - t[0])
    span = t[-1] - t[0] + 1.0 / rate
    n_windows = int(np.floor((span - cfg.window_length_s) / cfg.stride_s + 1e-9)) + 1
    out = []
    for k in range(n_windows):
        start = t[0] + k * cfg.stride_s
        stop = start + cfg.window_length_s
        sel = (t >= start - 1e-9) & (t < stop - 1e-9)
        try:
            rr = detect_r_peaks(x[sel], rate)
            hrv = (rmssd(rr) if len(rr) >= 2 else 0.0,
                   sdsd(rr) if len(rr) >= 3 else 0.0,
                   nn50(rr) if len(rr) >= 2 else 0)
        except (EmptySeriesError, InsufficientDataError):
            hrv = (0.0, 0.0, 0)
        gsel = (gsr.times_s >= start - 1e-9) & (gsr.times_s < stop - 1e-9)
        gh, gl = 0.0, 0.0
        if np.count_nonzero(gsel) >= 2:
            piece = GsrTrace(gsr.times_s[gsel], gsr.conductance_us[gsel])
            gh, gl = gsr_slope_features(piece, threshold)
        out.append([*hrv, gh, gl])
    return np.array(out, dtype=np.float64)


def detector_outcome(fn, x, fs):
    try:
        return fn(x, fs).intervals_ms.tolist()
    except (EmptySeriesError, InsufficientDataError, ValueError) as exc:
        return type(exc).__name__


def spike_train(beat_times_s, fs, duration_s, height=1.0):
    n = int(round(duration_s * fs))
    x = np.zeros(n)
    for bt in beat_times_s:
        x[int(round(bt * fs))] = height
    return x


# ---------------------------------------------------------------------------
# HRV metrics

def test_hrv_hand_values():
    rr = RRSeries([800.0, 850.0, 800.0])     # diffs +50, -50
    assert rmssd(rr) == 50.0
    assert sdsd(rr) == 50.0                  # mean diff is zero
    assert nn50(rr) == 0                     # strictly greater than 50 only

    rr = RRSeries([800.0, 851.0, 800.0])     # diffs +51, -51
    assert nn50(rr) == 2

    rr = RRSeries([800.0, 850.0, 900.0])     # diffs +50, +50
    assert rmssd(rr) == 50.0
    assert sdsd(rr) == 0.0


def test_hrv_against_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(3, 60))
        iv = rng.uniform(400.0, 1400.0, size=n)
        rr = RRSeries(iv)
        r0, s0, n0 = hrv_oracle(list(iv))
        assert abs(rmssd(rr) - r0) <= 1e-12 * max(1.0, r0)
        assert abs(sdsd(rr) - s0) <= 1e-12 * max(1.0, s0)
        assert nn50(rr) == n0


def test_rmssd_sdsd_identity():
    # population-std convention makes this exact up to rounding
    rng = np.random.default_rng(19)
    for _ in range(200):
        iv = rng.uniform(300.0, 1500.0, size=int(rng.integers(3, 80)))
        rr = RRSeries(iv)
        d = np.diff(iv)
        lhs = rmssd(rr) ** 2
        rhs = sdsd(rr) ** 2 + float(np.mean(d)) ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, lhs)


def test_hrv_minimum_lengths():
    with pytest.raises(InsufficientDataError):
        rmssd(RRSeries([800.0]))
    with pytest.raises(InsufficientDataError):
        nn50(RRSeries([800.0]))
    with pytest.raises(InsufficientDataError):
        sdsd(RRSeries([800.0, 850.0]))   # needs 3 intervals for 2 diffs


def test_rr_series_validation():
    with pytest.raises(ValueError):
        RRSeries([800.0, -5.0])
    with pytest.raises(ValueError):
        RRSeries([800.0, float("nan")])
    assert len(RRSeries([])) == 0


def test_nn50_custom_threshold():
    rr = RRSeries([800.0, 830.0, 800.0])
    assert nn50(rr) == 0
    assert nn50(rr, threshold_ms=20.0) == 2


# ---------------------------------------------------------------------------
# beat detection

def test_detect_regular_spike_train_exact():
    fs = 256.0
    beats = [0.5 + k * 1.0 for k in range(10)]
    x = spike_train(beats, fs, 10.5)
    rr = detect_r_peaks(x, fs)
    assert np.array_equal(rr.intervals_ms, np.full(9, 1000.0))


def test_detect_irregular_spikes_match_index_arithmetic():
    fs = 256.0
    beats = [0.5, 1.4, 2.5, 3.2, 4.5]
    x = spike_train(beats, fs, 5.5)
    idx = np.array([int(round(b * fs)) for b in beats], dtype=np.float64)
    expected = np.diff(idx) / fs * 1000.0
    rr = detect_r_peaks(x, fs)
    assert np.array_equal(rr.intervals_ms, expected)


def test_detect_75_bpm_median():
    fs = 256.0
    beats = [0.4 + 0.8 * k for k in range(30)]
    x = spike_train(beats, fs, 25.0)
    rr = detect_r_peaks(x, fs)
    assert abs(float(np.median(rr.intervals_ms)) - 800.0) <= 1000.0 / fs


def test_detect_refines_to_the_apex():
    # two-sample QRS with the apex on the second sample; the detector must
    # time beats off the apex, giving the same spacing as the apex indices
    fs = 250.0
    n = int(7 * fs)
    x = np.zeros(n)
    apexes = []
    for k in range(6):
        i = int(round((0.6 + 1.0 * k) * fs))
        x[i] = 0.6
        x[i + 1] = 1.0
        apexes.append(i + 1)
    rr = detect_r_peaks(x, fs)
    expected = np.diff(np.array(apexes, dtype=np.float64)) / fs * 1000.0
    assert np.array_equal(rr.intervals_ms, expected)


def test_detect_invariance_to_gain_and_offset():
    fs = 256.0
    x = spike_train([0.5, 1.3, 2.4, 3.0, 4.1], fs, 5.0)
    base = detect_r_peaks(x, fs)
    scaled = detect_r_peaks(37.0 * x + 5.0, fs)
    assert np.array_equal(base.intervals_ms, scaled.intervals_ms)


def test_detect_rejects_bad_input():
    fs = 256.0
    with pytest.raises(EmptySeriesError):
        detect_r_peaks(np.zeros(int(5 * fs)), fs)           # flat
    with pytest.raises(EmptySeriesError):
        detect_r_peaks(spike_train([1.0], fs, 5.0), fs)     # single beat
    with pytest.raises(InsufficientDataError):
        detect_r_peaks(np.zeros(100), fs)                   # < 2 s
    with pytest.raises(InsufficientDataError):
        detect_r_peaks(np.zeros(500), 50.0)                 # rate too low
    with pytest.raises(ValueError):
        bad = np.zeros(int(5 * fs))
        bad[10] = np.nan
        detect_r_peaks(bad, fs)


def test_detect_respects_refractory():
    # a double-spike 40 ms apart must register as one beat, not two
    fs = 256.0
    x = spike_train([1.0, 2.0, 3.0], fs, 4.0)
    x[int(round(2.04 * fs))] = 1.0
    rr = detect_r_peaks(x, fs)
    assert len(rr) == 2
    assert np.array_equal(rr.intervals_ms, np.full(2, 1000.0))


def random_ecg(rng, fs):
    """2-12 s of one of: spiky beats in noise, coarse integer levels (ties
    everywhere), or beats plus bursts longer than the refractory period."""
    n = int(rng.integers(int(2 * fs), int(12 * fs)))
    kind = int(rng.integers(3))
    if kind == 1:
        return rng.integers(0, int(rng.integers(2, 6)), size=n).astype(np.float64)
    x = rng.normal(0.0, float(rng.uniform(0.0, 0.3)), size=n)
    i = int(rng.integers(0, int(0.5 * fs)))
    while i < n:
        x[i] += float(rng.uniform(0.8, 1.2))
        i += int(rng.uniform(0.2, 1.4) * fs)
    if kind == 2:
        for _ in range(int(rng.integers(1, 4))):
            a = int(rng.integers(0, n))
            b = min(n, a + int(rng.uniform(0.3, 1.5) * fs))
            x[a:b] = np.where(np.arange(b - a) % 2, 1.0, -1.0) * float(rng.choice([1.0, 2.0]))
    return x


@pytest.mark.parametrize("fs", [100.0, 128.0, 250.0, 256.0, 360.0, 500.0, 1000.0])
def test_detect_matches_per_crossing_loop(fs):
    rng = np.random.default_rng(int(fs))
    for _ in range(40):
        x = random_ecg(rng, fs)
        assert detector_outcome(detect_r_peaks, x, fs) == detector_outcome(
            per_crossing_r_peaks, x, fs
        )


def test_detect_matches_loop_on_edge_shapes():
    fs = 256.0
    n = int(4 * fs)
    flat_top = spike_train([0.5, 1.5, 2.5, 3.5], fs, 4.0)
    for i in (128, 384, 640, 896):
        flat_top[i:i + 5] = 1.0                          # ties inside the search span
    square = np.zeros(n)
    square[100:700:2] = 1.0                              # one 2.3 s burst of crossings
    tail = spike_train([0.5, 1.5], fs, 4.0)
    tail[-1] = 3.0                                       # a crossing on the last sample
    ramp = np.repeat(np.arange(n // 64, dtype=np.float64), 64)
    for x in (flat_top, square, tail, ramp, -square):
        want = detector_outcome(per_crossing_r_peaks, x, fs)
        assert detector_outcome(detect_r_peaks, x, fs) == want


# ---------------------------------------------------------------------------
# GSR run features

def test_gsr_single_ramp():
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    g = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    gh, gl = gsr_slope_features(GsrTrace(t, g))
    assert (gh, gl) == (2.0, 4.0)


def test_gsr_two_ramps_mean():
    t = np.arange(8.0)
    g = np.array([0.0, 1.0, 2.0, 2.0, 2.5, 3.0, 3.5, 4.0])
    gh, gl = gsr_slope_features(GsrTrace(t, g))
    assert (gh, gl) == (2.0, 3.0)    # rises 2 and 2; durations 2 and 4


def test_gsr_nothing_qualifies():
    t = np.arange(5.0)
    flat = GsrTrace(t, np.full(5, 2.0))
    assert gsr_slope_features(flat) == (0.0, 0.0)
    tiny = GsrTrace(np.arange(3.0), np.array([0.0, 0.01, 0.02]))
    assert gsr_slope_features(tiny) == (0.0, 0.0)   # rise below threshold
    assert gsr_slope_features(GsrTrace([0.0], [1.0])) == (0.0, 0.0)


def test_gsr_threshold_filters_small_runs():
    t = np.arange(7.0)
    g = np.array([0.0, 0.02, 0.02, 0.0, 0.5, 1.0, 0.9])
    gh, gl = gsr_slope_features(GsrTrace(t, g))
    assert (gh, gl) == (1.0, 2.0)    # only the 0.0 -> 1.0 run counts


def test_gsr_against_scan_oracle():
    rng = np.random.default_rng(23)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        t = np.cumsum(rng.uniform(0.02, 0.08, size=n))
        g = np.cumsum(rng.normal(0.0, 0.05, size=n)) + 2.0
        trace = GsrTrace(t, g)
        got = gsr_slope_features(trace)
        want = gsr_oracle(t, g, DEFAULT_GSR_THRESHOLD_US)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_gsr_time_shift_invariance():
    t = np.arange(6.0)
    g = np.array([0.0, 0.3, 0.8, 0.8, 1.1, 1.5])
    a = gsr_slope_features(GsrTrace(t, g))
    b = gsr_slope_features(GsrTrace(t + 1000.0, g))
    assert a == b


def test_gsr_trace_validation():
    with pytest.raises(ValueError):
        GsrTrace([0.0, 1.0], [1.0])         # length mismatch
    with pytest.raises(ValueError):
        GsrTrace([0.0, 0.0], [1.0, 2.0])    # non-increasing time
    with pytest.raises(ValueError):
        GsrTrace([0.0, 1.0], [1.0, np.inf])


def test_gsr_traces_compare_and_hash_by_identity():
    a, b = GsrTrace([0.0, 1.0], [1.0, 2.0]), GsrTrace([0.0, 1.0], [1.0, 2.0])
    assert a == a
    assert a != b                        # equal samples, two objects
    assert hash(a) == hash(a)
    assert {a: 1, b: 2}[a] == 1


def test_rr_series_compare_and_hash_by_identity():
    a, b = RRSeries([800.0, 810.0]), RRSeries([800.0, 810.0])
    assert a == a
    assert a != b                        # equal intervals, two objects
    assert hash(a) == hash(a)
    assert {a: 1, b: 2}[a] == 1


# ---------------------------------------------------------------------------
# windowing

def make_recording(duration_s, beat_period_s=1.0, fs=256.0, gsr_fs=32.0):
    t = np.arange(int(round(duration_s * fs))) / fs
    beats = np.arange(0.5, duration_s - 0.5, beat_period_s)
    x = spike_train(beats, fs, duration_s)
    gt = np.arange(int(round(duration_s * gsr_fs))) / gsr_fs
    gv = 2.0 + 0.3 * np.sin(2 * np.pi * gt / 20.0)
    return t, x, GsrTrace(gt, gv)


def test_window_counts():
    t, x, gsr = make_recording(60.0)
    assert len(extract_window_features(t, x, gsr)) == 3          # 30 s, 50%
    cfg = WindowConfig(window_length_s=30.0, overlap=0.0)
    assert len(extract_window_features(t, x, gsr, cfg)) == 2
    cfg = WindowConfig(window_length_s=60.0, overlap=0.0)
    assert len(extract_window_features(t, x, gsr, cfg)) == 1
    with pytest.raises(InsufficientDataError):
        cfg = WindowConfig(window_length_s=61.0, overlap=0.0)
        extract_window_features(t, x, gsr, cfg)


def test_window_config_validation():
    with pytest.raises(ValueError):
        WindowConfig(window_length_s=0.0)
    with pytest.raises(ValueError):
        WindowConfig(overlap=1.0)
    with pytest.raises(ValueError):
        WindowConfig(overlap=-0.1)
    assert WindowConfig(window_length_s=30.0, overlap=0.5).stride_s == 15.0


def test_windows_compose_from_parts():
    # boundaries at whole seconds fall exactly between samples, so each
    # window slice is a plain index range and the oracle is composition
    fs, gfs = 256.0, 32.0
    t, x, gsr = make_recording(60.0, beat_period_s=0.9)
    cfg = WindowConfig(window_length_s=20.0, overlap=0.0)
    rows = extract_window_features(t, x, gsr, cfg)
    assert rows.shape == (3, 5) and rows.dtype == np.float64
    for k, row in enumerate(rows):
        lo, hi = int(k * 20 * fs), int((k + 1) * 20 * fs)
        rr = detect_r_peaks(x[lo:hi], fs)
        glo, ghi = int(k * 20 * gfs), int((k + 1) * 20 * gfs)
        piece = GsrTrace(gsr.times_s[glo:ghi], gsr.conductance_us[glo:ghi])
        gh, gl = gsr_slope_features(piece)
        assert row.tolist() == [rmssd(rr), sdsd(rr), nn50(rr), gh, gl]


def jittered_recording(rng, fs, gsr_fs, duration_s, jitter):
    """Time bases with up to +-jitter of a sample period of noise; the GSR
    starts up to a second before or after the ECG."""
    n = int(round(duration_s * fs))
    t = (np.arange(n) + rng.uniform(-jitter, jitter, size=n)) / fs
    if rng.random() < 0.2:
        x = np.resize(random_ecg(rng, fs), n)
    else:
        beats = spike_train(np.arange(0.3, 3.0, 0.8), fs, 3.0)
        x = np.resize(beats, n) + rng.normal(0.0, 0.05, size=n)
    gn = int(round((duration_s + 2.0) * gsr_fs))
    gt = float(rng.uniform(-1.0, 1.0)) + (
        np.arange(gn) + rng.uniform(-jitter, jitter, size=gn)
    ) / gsr_fs
    gv = 2.0 + np.cumsum(rng.normal(0.0, 0.04, size=gn))
    return t, x, GsrTrace(gt, gv)


@pytest.mark.parametrize("fs,gsr_fs", [(100.0, 4.0), (256.0, 32.0), (500.0, 7.3), (1000.0, 50.0)])
def test_windows_match_masked_loop(fs, gsr_fs):
    rng = np.random.default_rng(int(fs + gsr_fs))
    for trial in range(6):
        duration = float(rng.uniform(12.0, 40.0))
        jitter = 0.0 if trial % 3 == 0 else 0.3
        t, x, gsr = jittered_recording(rng, fs, gsr_fs, duration, jitter)
        span = t[-1] - t[0] + (t[-1] - t[0]) / (t.size - 1)
        # the last case is one window that ends at the last sample
        for cfg in (WindowConfig(float(rng.uniform(2.0, 10.0)), float(rng.uniform(0.0, 0.9))),
                    WindowConfig(4.0, 0.5), WindowConfig(span / 3.0, 0.0), WindowConfig(span, 0.0)):
            threshold = float(rng.uniform(0.0, 0.2))
            got = extract_window_features(t, x, gsr, cfg, threshold)
            assert got.tobytes() == masked_window_features(t, x, gsr, cfg, threshold).tobytes()
    # the paper's rate of 24 per minute: 30 s windows every 2.5 s
    t, x, gsr = jittered_recording(rng, fs, gsr_fs, 75.0, 0.3)
    cfg = WindowConfig(30.0, 11 / 12)
    got = extract_window_features(t, x, gsr, cfg)
    assert len(got) >= 18
    assert got.tobytes() == masked_window_features(t, x, gsr, cfg).tobytes()


def triangle_beats(t, peak_times, heights, half_width=3):
    """Triangles of the given heights, ``half_width`` samples up and down,
    peaking at the samples nearest ``peak_times``: every step of a triangle
    has the same derivative energy, so every step is a crossing."""
    x = np.zeros(t.size)
    for p, h in zip(np.searchsorted(t, peak_times), heights):
        for k in range(-half_width, half_width + 1):
            if 0 <= p + k < t.size:
                x[p + k] = max(x[p + k], h * (1.0 - abs(k) / half_width))
    return x


def batching_edge_case(case):
    """(t, x, gsr, cfg, threshold) of a 30 s recording at one of the edges
    that computing all windows at once creates."""
    rng = np.random.default_rng(sum(map(ord, case)))
    fs = 90.0 if case == "low rate with a nan" else 256.0
    t = np.arange(int(30 * fs)) / fs
    beats = np.cumsum(rng.uniform(0.6, 0.9, size=50))
    beats = beats[beats < 29.8]
    cfg, threshold = WindowConfig(4.0, 0.5), DEFAULT_GSR_THRESHOLD_US
    gt = np.arange(30 * 4) / 4.0
    gv = 2.0 + 0.3 * np.sin(gt / 2.0)
    if case == "crossing near a window end":
        # a beat peaking 20 samples before to 12 after each window edge: a
        # crossing inside the window whose 100 ms search runs past its end
        edges = np.arange(2.0, 30.0, 2.0)
        offsets = np.resize([-20, -3, 0, 1, 2, 12], edges.size) / fs
        beats = np.sort(np.concatenate((beats[beats % 2.0 > 0.3], edges + offsets)))
    x = triangle_beats(t, beats, rng.uniform(0.6, 1.4, size=beats.size))
    if case == "short window after a gap":
        # no samples in [10, 18.8): window [16, 20) holds 1.2 s, under 2 s at
        # the rate the time base implies; its nan is never looked at
        keep = (t < 10.0) | (t >= 18.8)
        t, x = t[keep], x[keep]
        x[np.searchsorted(t, 19.0)] = np.nan
        cfg = WindowConfig(4.0, 0.0)
    elif case in ("low rate with a nan", "nan at a usable rate"):
        x[x.size // 2] = np.nan
    elif case == "flat window":
        x[(t >= 7.9) & (t < 14.1)] = 0.3
    elif case == "quiet window":
        # faint noise alone sets a threshold far below every other window's
        quiet = (t >= 7.9) & (t < 14.1)
        x[quiet] = rng.normal(0.0, 1e-4, size=np.count_nonzero(quiet))
        x += rng.normal(0.0, 0.01, size=x.size) * ~quiet
    elif case == "gsr run across a window edge":
        # 1.5 s rises centred on each window edge, falls in between; clipped
        # to a window, a run's rise can drop below the threshold
        gt = np.arange(30 * 8) / 8.0
        phase = (gt + 0.75) % 2.0
        gv = 2.0 + np.where(phase < 1.5, 0.02 * phase * 8, 0.24 - 0.12 * (phase - 1.5) * 8)
        threshold = 0.15
    elif case == "gsr window with one sample":
        gt = np.arange(0.0, 30.0, 3.0)
        gv = 2.0 + 0.1 * (np.arange(gt.size) % 3)
    return t, x, GsrTrace(gt, gv), cfg, threshold


BATCHING_EDGE_CASES = ("crossing near a window end", "short window after a gap",
                       "low rate with a nan", "nan at a usable rate", "flat window",
                       "quiet window", "gsr run across a window edge",
                       "gsr window with one sample")


@pytest.mark.parametrize("case", BATCHING_EDGE_CASES)
def test_windows_match_masked_loop_at_batching_edges(case):
    t, x, gsr, cfg, threshold = batching_edge_case(case)
    if case == "nan at a usable rate":
        with pytest.raises(ValueError, match="non-finite"):
            masked_window_features(t, x, gsr, cfg, threshold)
        with pytest.raises(ValueError, match="non-finite"):
            extract_window_features(t, x, gsr, cfg, threshold)
        return
    got = extract_window_features(t, x, gsr, cfg, threshold)
    assert got.tobytes() == masked_window_features(t, x, gsr, cfg, threshold).tobytes()
    hrv = got[:, :3]
    if case == "low rate with a nan":
        assert not hrv.any()
    elif case in ("short window after a gap", "flat window"):
        # the degraded windows read zero HRV; the rest do not
        assert 0 < np.count_nonzero(~hrv.any(axis=1)) < len(got)
    elif case == "gsr window with one sample":
        assert 0 < np.count_nonzero(~got[:, 3:].any(axis=1)) < len(got)
    else:
        assert hrv.all(axis=1).any() and got[:, 3:].any()


def test_windows_match_masked_loop_at_boundary_samples():
    # samples placed on, and within 1e-9 s of, every window edge: the
    # tolerance and the strictness of each bound decide their window
    fs, gfs, stride = 256.0, 32.0, 2.0
    cfg = WindowConfig(window_length_s=2 * stride, overlap=0.5)
    t = np.arange(int(30 * fs)) / fs
    gt = np.arange(int(30 * gfs)) / gfs
    nudges = [lambda b: b - 2e-9, lambda b: b - 1e-9, lambda b: b - 5e-10,
              lambda b: b, lambda b: b + 5e-10]
    for k in range(1, 15):
        edge = k * stride
        t[int(edge * fs)] = nudges[k % 5](edge)
        gt[int(edge * gfs)] = nudges[(k + 2) % 5](edge)
    x = spike_train(np.arange(0.3, 30.0, 0.7), fs, 30.0)
    gsr = GsrTrace(gt, 2.0 + 0.3 * np.sin(gt))
    rows = extract_window_features(t, x, gsr, cfg)
    assert np.array_equal(rows, masked_window_features(t, x, gsr, cfg))
    assert rows.shape == (14, 5)


def test_window_without_beats_gets_zero_hrv():
    fs = 256.0
    duration = 90.0
    t = np.arange(int(duration * fs)) / fs
    rng = np.random.default_rng(29)
    beats = np.cumsum(rng.uniform(0.7, 1.1, size=120)) + 0.5
    beats = [b for b in beats if b < 89.0 and not 29.5 <= b < 60.5]
    x = spike_train(beats, fs, duration)
    gt = np.arange(int(duration * 4.0)) / 4.0
    gsr = GsrTrace(gt, 2.0 + 0.3 * np.sin(gt / 3.0))
    cfg = WindowConfig(window_length_s=30.0, overlap=0.0)
    rows = extract_window_features(t, x, gsr, cfg)
    assert rows.shape == (3, 5)
    # the beatless middle window degrades to zero HRV instead of raising
    assert rows[1, :3].tolist() == [0.0, 0.0, 0.0]
    assert rows[0, 0] > 0.0 and rows[2, 0] > 0.0
    # and it still reports GSR activity independently
    assert rows[1, 3] > 0.0


def test_window_gsr_columns_need_two_samples():
    # GSR every 10 s: a 20 s window holds two samples, a 10 s window one
    t, x, _ = make_recording(60.0)
    gt = np.arange(0.0, 60.0, 10.0)
    gsr = GsrTrace(gt, 2.0 + 0.25 * np.arange(gt.size))
    rows = extract_window_features(t, x, gsr, WindowConfig(20.0, 0.0))
    assert rows[:, 3:].tolist() == [[0.25, 10.0]] * 3
    rows = extract_window_features(t, x, gsr, WindowConfig(10.0, 0.0))
    assert rows[:, 3:].tolist() == [[0.0, 0.0]] * 6


def test_extract_validates_inputs():
    gsr = GsrTrace([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        extract_window_features([0.0, 1.0], [1.0], gsr)
    with pytest.raises(InsufficientDataError):
        extract_window_features([0.0], [1.0], gsr)
    with pytest.raises(ValueError):
        extract_window_features([0.0, 0.0, 1.0], [1.0, 1.0, 1.0], gsr)


def test_feature_names_are_the_column_order():
    assert FEATURE_NAMES == ("rmssd_ms", "sdsd_ms", "nn50", "gsrh_uS", "gsrl_s")
    t, _, gsr = make_recording(60.0)
    # RR intervals alternate 0.7 / 0.9 s, so every successive difference counts
    beats = np.cumsum(np.resize([0.7, 0.9], 80))
    x = spike_train(beats[beats < 59.5], 256.0, 60.0)
    rows = extract_window_features(t, x, gsr)
    assert rows.shape == (3, len(FEATURE_NAMES))
    nn = rows[:, FEATURE_NAMES.index("nn50")]
    # NN50 is a count held as a whole-number float
    assert (nn > 30).all() and (nn == np.round(nn)).all()
