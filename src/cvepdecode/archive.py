"""Single-file trial archive: one JSON header line followed by raw 32-bit
little-endian floats, channel-major within each trial. Trials are sampled
at 180 Hz under 60 Hz stimulus frames; the reader rejects other rates,
non-finite samples and any header it cannot read as such an archive, and
the writer refuses any session the reader would reject.
"""
from __future__ import annotations

import json

import numpy as np

from .codegen import PRESENTATION_RATE_HZ, parse_code_set
from .errors import CorruptArchive, InvalidCodeSet, UnsupportedVersion
from .sigproc import TARGET_FS, Trial
from .simulate import Session

ARCHIVE_VERSION = 1


def write_archive(session: Session, path) -> None:
    """Write the session as one archive. The archive is first read back by
    the reader's own parser, so a session that read_archive would reject
    (no samples, non-finite samples at float32, labels outside the code
    set, a malformed code set) raises CorruptArchive and nothing is
    written."""
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
    header_line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    with np.errstate(over="ignore"):   # a sample past float32 becomes inf, refused below
        payload = b"".join(
            np.ascontiguousarray(t.samples, dtype="<f4").tobytes() for t in session.trials
        )
    try:
        _parse(header_line, payload)
    except CorruptArchive as exc:
        raise CorruptArchive(f"refusing to write an unreadable archive: {exc}") from exc
    with open(path, "wb") as fh:
        fh.write(header_line)
        fh.write(payload)


def read_archive(path) -> Session:
    try:
        with open(path, "rb") as fh:
            header_line = fh.readline()
            payload = fh.read()
    except OSError as exc:
        raise CorruptArchive(f"cannot read archive {path}: {exc}") from exc
    return _parse(header_line, payload)


def _parse(header_line: bytes, payload: bytes) -> Session:
    """The session an archive's header line and payload hold; DataError if
    they are not a valid archive."""
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptArchive(f"unreadable archive header: {exc}") from exc

    if not isinstance(header, dict):
        raise CorruptArchive("archive header is not a JSON object")
    version = _field(header, "version", (int,))
    if version != ARCHIVE_VERSION:
        raise UnsupportedVersion(f"archive version {version!r}, expected {ARCHIVE_VERSION}")
    channels = _field(header, "channels", (int,))
    fs = _field(header, "fs_hz", (int, float))
    frame_rate = _field(header, "frame_rate_hz", (int, float))
    n_trials = _field(header, "n_trials", (int,))
    trial_len = _field(header, "trial_len_samples", (int,))

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
    try:
        codes = parse_code_set(header.get("codes"))
    except InvalidCodeSet as exc:
        raise CorruptArchive(f"header codes: {exc}") from exc
    labels = header.get("labels")
    if labels is None:
        labels = [None] * n_trials
    if not isinstance(labels, list) or len(labels) != n_trials:
        raise CorruptArchive(f"header labels do not give one label per trial ({n_trials})")
    if any(l is not None and not (type(l) is int and 0 <= l < len(codes)) for l in labels):
        raise CorruptArchive(f"header labels outside [0, {len(codes)})")
    seed = header.get("seed")
    if seed is not None and type(seed) is not int:
        raise CorruptArchive(f"header seed {seed!r} is not an integer")

    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if not np.isfinite(data).all():
        raise CorruptArchive("archive holds non-finite samples")
    data = data.reshape(n_trials, channels, trial_len)
    trials = [Trial(samples=data[i], code_index_true=labels[i]) for i in range(n_trials)]
    return Session(trials=trials, codes=codes, seed=seed)


def _field(header: dict, key: str, types: tuple[type, ...]):
    """header[key] if it is of one of the exact types: a JSON bool is no
    int, and a float of integral value no int either. CorruptArchive
    otherwise, a missing key included."""
    value = header.get(key)
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise CorruptArchive(f"archive header {key!r} is {value!r}, not a JSON {names}")
    return value
