"""Single-file trial archive: one JSON header line followed by raw 32-bit
little-endian floats, channel-major within each trial. Trials are sampled
at 180 Hz under 60 Hz stimulus frames; the reader rejects other rates,
non-finite samples and any header it cannot read as such an archive.
"""
from __future__ import annotations

import json

import numpy as np

from .codegen import PRESENTATION_RATE_HZ, BitSequence
from .errors import CorruptArchive, UnsupportedVersion
from .sigproc import TARGET_FS, Trial
from .simulate import Session

ARCHIVE_VERSION = 1


def write_archive(session: Session, path) -> None:
    if not session.trials:
        raise CorruptArchive("refusing to write an empty session")
    n_channels = session.trials[0].n_channels
    trial_len = session.trials[0].n_samples
    for t in session.trials:
        if t.n_channels != n_channels or t.n_samples != trial_len:
            raise CorruptArchive("trials differ in shape; archive requires uniform trials")
    labels = [t.code_index_true for t in session.trials]
    header = {
        "version": ARCHIVE_VERSION,
        "channels": n_channels,
        "fs_hz": TARGET_FS,
        "frame_rate_hz": PRESENTATION_RATE_HZ,
        "n_trials": len(session.trials),
        "trial_len_samples": trial_len,
        "codes": [c.to_line() for c in session.codes],
        "labels": labels if all(l is not None for l in labels) else None,
        "seed": session.seed,
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for t in session.trials:
            fh.write(np.ascontiguousarray(t.samples, dtype="<f4").tobytes())


def read_archive(path) -> Session:
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CorruptArchive(f"cannot read archive {path}: {exc}") from exc
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArchive(f"unreadable archive header: {exc}") from exc

    if not isinstance(header, dict):
        raise CorruptArchive("archive header is not a JSON object")
    version = header.get("version")
    if version != ARCHIVE_VERSION:
        raise UnsupportedVersion(f"archive version {version!r}, expected {ARCHIVE_VERSION}")
    try:
        channels = int(header["channels"])
        fs = float(header["fs_hz"])
        frame_rate = float(header["frame_rate_hz"])
        n_trials = int(header["n_trials"])
        trial_len = int(header["trial_len_samples"])
        code_lines = header["codes"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CorruptArchive(f"incomplete archive header: {exc}") from exc

    if fs != TARGET_FS or frame_rate != PRESENTATION_RATE_HZ:
        raise CorruptArchive(f"archive at {fs} Hz with {frame_rate} Hz frames; "
                             f"only {TARGET_FS} Hz and {PRESENTATION_RATE_HZ} Hz are supported")
    if min(channels, n_trials, trial_len) < 1:
        raise CorruptArchive("archive header gives a non-positive channel, trial or sample count")
    # checked before anything is sized by n_trials
    expected = n_trials * channels * trial_len * 4
    if len(payload) != expected:
        raise CorruptArchive(
            f"payload holds {len(payload)} bytes, header implies {expected}"
        )
    if not isinstance(code_lines, list) or not all(
        isinstance(c, str) and c.strip() for c in code_lines
    ):
        raise CorruptArchive("header codes are not a list of non-empty strings")
    if not code_lines:
        raise CorruptArchive("archive holds no codes")
    if len({len(c) for c in code_lines}) > 1:
        raise CorruptArchive("header codes have unequal lengths")
    labels = header.get("labels") or [None] * n_trials
    if not isinstance(labels, list) or len(labels) != n_trials:
        raise CorruptArchive(f"header labels do not give one label per trial ({n_trials})")
    if any(l is not None and not (type(l) is int and 0 <= l < len(code_lines)) for l in labels):
        raise CorruptArchive(f"header labels outside [0, {len(code_lines)})")
    seed = header.get("seed")
    if seed is not None and type(seed) is not int:
        raise CorruptArchive(f"header seed {seed!r} is not an integer")
    try:
        codes = [BitSequence.from_line(line) for line in code_lines]
    except ValueError as exc:
        raise CorruptArchive(str(exc)) from exc

    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(data).all():
        raise CorruptArchive("archive holds non-finite samples")
    data = data.reshape(n_trials, channels, trial_len)
    trials = [Trial(samples=data[i], code_index_true=labels[i]) for i in range(n_trials)]
    return Session(trials=trials, codes=codes, seed=seed)
