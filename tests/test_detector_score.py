"""Score the R-peak detector against ECGs whose beat times are known.

``synth_ecg`` draws beats about 800 ms apart and sums P, Q, R, S and T
Gaussian waves around each one, plus a slow baseline wander and white noise
of a given standard deviation (the R wave has height 1). The detector runs
as the feature stage runs it: on 30 s windows at 50% overlap. A detection
within 150 ms of a true beat in the same window is a match (ANSI/AAMI EC57),
each true beat matching at most one detection:

* sensitivity Se = TP / (TP + FN);
* positive predictivity +P = TP / (TP + FP).

The gates are the values the detector scored when this test was added. A
detector change may raise them, never lower them.
"""

import numpy as np
import pytest

from stresswatch.biosignal_features import _window_beats

FS = 256.0
MATCH_S = 0.150
# (offset from the R peak in s, amplitude, Gaussian width in s) of P, Q, R, S, T
WAVES = ((-0.16, 0.12, 0.025), (-0.025, -0.12, 0.008), (0.0, 1.0, 0.010),
         (0.025, -0.25, 0.008), (0.28, 0.30, 0.045))


def synth_ecg(rng, duration_s, noise_sd, fs=FS):
    """(signal, beat times in s) of a ``duration_s`` ECG sampled at ``fs``."""
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    rr = rng.normal(0.8, 0.06, size=int(duration_s / 0.5))
    beats = 0.4 + np.cumsum(np.r_[0.0, rr])
    beats = beats[beats < duration_s - 0.4]
    x = 0.05 * np.sin(2 * np.pi * 0.2 * t + rng.uniform(0.0, 2 * np.pi))
    for b in beats:
        for offset, amplitude, width in WAVES:
            a = max(0, int((b + offset - 5 * width) * fs))
            z = min(n, int((b + offset + 5 * width) * fs) + 1)
            x[a:z] += amplitude * np.exp(-0.5 * ((t[a:z] - b - offset) / width) ** 2)
    return x + rng.normal(0.0, noise_sd, n), beats


def match_counts(detected, truth, tolerance=MATCH_S):
    """(TP, FP, FN): each detection takes the nearest unmatched true beat
    within ``tolerance`` seconds."""
    free = np.ones(truth.size, dtype=bool)
    tp = 0
    for d in detected:
        gap = np.where(free, np.abs(truth - d), np.inf)
        if gap.size and gap.min() <= tolerance:
            free[np.argmin(gap)] = False
            tp += 1
    return tp, len(detected) - tp, truth.size - tp


def detector_score(noise_sd, seeds=range(5), duration_s=300.0):
    """(Se, +P) over the 30 s, 50%-overlap windows of one recording per seed."""
    counts = np.zeros(3, dtype=np.int64)
    for seed in seeds:
        x, beats = synth_ecg(np.random.default_rng(seed), duration_s, noise_sd)
        lo = np.arange(0, x.size - int(30 * FS) + 1, int(15 * FS))
        hi = lo + int(30 * FS)
        for a, b, peaks in zip(lo, hi, _window_beats(x, FS, lo, hi)):
            detected = [] if isinstance(peaks, Exception) else np.array(peaks) / FS
            truth = beats[(beats >= a / FS) & (beats <= (b - 1) / FS)]
            counts += match_counts(detected, truth)
    tp, fp, fn = counts.tolist()
    return tp / (tp + fn), tp / (tp + fp)


def test_synth_ecg_puts_the_r_wave_at_each_beat():
    x, beats = synth_ecg(np.random.default_rng(0), 20.0, 0.0)
    assert beats.size >= 20 and np.diff(beats).min() > 0.5
    for b in beats:
        k = int(round(b * FS))
        assert abs(int(np.argmax(x[k - 20:k + 21])) - 20) <= 1


@pytest.mark.parametrize("noise_sd,min_se,min_ppv", [(0.01, 1.0, 0.998), (0.05, 0.978, 0.833)])
def test_detector_score_holds_its_gates(noise_sd, min_se, min_ppv):
    se, ppv = detector_score(noise_sd)
    assert se >= min_se and ppv >= min_ppv, (se, ppv)
