import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cvepdecode.archive import write_archive
from cvepdecode.cca import CcaDecoder, CcaState
from cvepdecode.codegen import BitSequence, default_code_set, generate_m_sequence, gold_set
from cvepdecode.codegen import parse_code_set, periodic_cross_correlation, select_subset
from cvepdecode.encoding import n_cycles_to_cover, structure_for_code, window_sums
from cvepdecode.evaluate import DecoderBank
from cvepdecode.errors import ConfigError, CorruptArchive, DataError, InvalidCodeSet
from cvepdecode.errors import InvalidCutoff, InvalidSeed, LabelOutOfRange, LengthMismatch
from cvepdecode.errors import NotPrimitive, ShapeError
from cvepdecode.outcome import DecodeOutcome
from cvepdecode.sigproc import ContinuousRecording, FilterSpec, Trial, resample
from cvepdecode.simulate import ForwardModel, synthesize_session, synthesize_trial
from cvepdecode.umm import UmmDecoder, UmmState

CODES = default_code_set(4)


#: a code one bit shorter than the others
SHORT_CODE = BitSequence(CODES[0].bits[:-1])


def _session(codes):
    """A one-run session over the codes."""
    return synthesize_session(1, ForwardModel(), codes=codes, dur_s=1.05)


def _cca_update(label):
    """A cumulative CCA update of a one-cycle trial under ``label``."""
    decoder = CcaDecoder(CODES, 1)
    trial = Trial(samples=np.ones((2, 378)))
    return decoder.update_cumulative(CcaState(), trial, label)


def _umm_update(label):
    """A cumulative UMM update of a one-cycle trial decided as ``label``."""
    decided = DecodeOutcome(label=label, scores=np.zeros(len(CODES)), confidence=0.5)
    trial = Trial(samples=np.ones((2, 378)))
    return UmmDecoder(CODES, 1).update_cumulative(UmmState(), trial, decided)


def _write_unequal_trials():
    """write_archive of two trials of unequal length, which writes no file."""
    session = _session(CODES[:2])
    session.trials[1] = Trial(samples=session.trials[1].samples[:, :-3], code_index_true=1)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "unequal.cvep"
        try:
            write_archive(session, path)
        finally:
            assert not path.exists()


def _resample_from(fs):
    return resample(ContinuousRecording(np.zeros((2, 600)), fs=fs))


#: malformed arguments to constructors and kernels, each with the typed
#: error it must raise, and where a raise site has siblings of that type,
#: a pattern its message matches: a bare ValueError escapes the command
#: line's error handling and its exit codes
MALFORMED = {
    "zero-mixing": (lambda: ForwardModel(mixing=np.zeros(8)), ConfigError),
    "noise-kind": (lambda: ForwardModel(noise="brown"), ConfigError),
    "filter-kind": (lambda: FilterSpec("lowpass"), ConfigError),
    "notch-no-center": (lambda: FilterSpec("notch"), ConfigError),
    "notch-q": (lambda: FilterSpec("notch", center_hz=50.0, q=0.0), ConfigError),
    "notch-q-nan": (lambda: FilterSpec("notch", center_hz=50.0, q=math.nan), ConfigError),
    "notch-negative-center": (lambda: FilterSpec("notch", center_hz=-50.0), InvalidCutoff),
    "bandpass-no-lowpass": (lambda: FilterSpec("bandpass", highpass_hz=6.0), InvalidCutoff),
    "zero-cycles": (lambda: structure_for_code(BitSequence((0, 1)), 0), ConfigError),
    "zero-cycles-umm": (lambda: UmmDecoder(CODES, 0), ConfigError),
    "zero-cycles-cca": (lambda: CcaDecoder(CODES, 0), ConfigError),
    "no-bits-bank": (lambda: DecoderBank([BitSequence(())], 4.2), InvalidCodeSet),
    "no-bits-structure": (lambda: structure_for_code(BitSequence(()), 1), InvalidCodeSet),
    "no-bits-umm": (lambda: UmmDecoder([BitSequence(())], 1), InvalidCodeSet),
    "no-bits-cca": (lambda: CcaDecoder([BitSequence(())], 1), InvalidCodeSet),
    "no-bits-trial": (
        lambda: synthesize_trial(BitSequence(()), ForwardModel(), 1.05), InvalidCodeSet
    ),
    "no-bits-cycles": (lambda: n_cycles_to_cover(BitSequence(()), 189), InvalidCodeSet),
    "repeated-code-bank": (lambda: DecoderBank([*CODES, CODES[1]], 4.2), InvalidCodeSet),
    "repeated-code-cca": (lambda: CcaDecoder([CODES[0], *CODES], 1), InvalidCodeSet),
    "repeated-code-umm": (lambda: UmmDecoder([CODES[2], CODES[3], CODES[2]], 1), InvalidCodeSet),
    "no-codes-session": (lambda: _session([]), InvalidCodeSet),
    "repeated-code-session": (lambda: _session([CODES[0], CODES[1], CODES[0]]), InvalidCodeSet),
    "mixed-lengths-session": (lambda: _session([CODES[0], SHORT_CODE]), InvalidCodeSet),
    "repeated-code-subset": (lambda: select_subset([*CODES, CODES[1]], 2), InvalidCodeSet),
    "mixed-lengths-subset": (lambda: select_subset([*CODES, SHORT_CODE], 2), InvalidCodeSet),
    "blank-code-line": (lambda: parse_code_set([CODES[0].to_line(), ""]), InvalidCodeSet),
    "bits": (lambda: BitSequence((0, 2)), InvalidCodeSet),
    "code-line": (lambda: BitSequence.from_line("01x0"), InvalidCodeSet),
    "window-frames": (lambda: window_sums(np.zeros((20, 3)), np.ones((1, 4))), ShapeError),
    "trial-3d": (lambda: Trial(samples=np.zeros((2, 3, 60))), ShapeError),
    "trial-no-channel": (lambda: Trial(samples=np.zeros((0, 60))), ShapeError),
    "trial-complex": (lambda: Trial(samples=np.ones((2, 60), dtype=complex)), ShapeError),
    "trial-text": (lambda: Trial(samples=[["a"]]), ShapeError),
    "recording-3d": (lambda: ContinuousRecording(np.zeros((2, 3, 60)), fs=180.0), ShapeError),
    "recording-no-channel": (lambda: ContinuousRecording(np.zeros((0, 60)), fs=180.0), ShapeError),
    "recording-complex": (
        lambda: ContinuousRecording(np.ones((2, 60), dtype=complex), fs=180.0), ShapeError
    ),
    "marker-float": (lambda: ContinuousRecording(np.zeros((2, 1000)), 180.0, [200.5]), ConfigError),
    "marker-text": (lambda: ContinuousRecording(np.zeros((2, 1000)), 180.0, ["200"]), ConfigError),
    "marker-bool": (lambda: ContinuousRecording(np.zeros((2, 1000)), 180.0, [True]), ConfigError),
    "responses-shape": (lambda: ForwardModel(responses=np.ones((3, 50))), ConfigError),
    "responses-nan": (lambda: ForwardModel(responses=np.full((3, 54), math.nan)), ConfigError),
    "mixing-2d": (lambda: ForwardModel(mixing=np.ones((2, 4))), ConfigError),
    "mixing-nan": (lambda: ForwardModel(mixing=np.full(8, math.nan)), ConfigError),
    "drift-nan": (lambda: ForwardModel(drift_slope=math.nan), ConfigError),
    "trial-seed": (lambda: synthesize_trial(CODES[0], ForwardModel(), 1.05, seed=-1), ConfigError),
    "cca-label-float": (lambda: _cca_update(2.5), LabelOutOfRange),
    "cca-label-bool": (lambda: _cca_update(True), LabelOutOfRange),
    "umm-label-float": (lambda: _umm_update(2.5), LabelOutOfRange),
    "umm-label-bool": (lambda: _umm_update(True), LabelOutOfRange),
    "archive-unequal-trials": (_write_unequal_trials, CorruptArchive, "differ in shape"),
    "resample-at-target": (lambda: _resample_from(180.0), InvalidCutoff, "must be below"),
    "resample-below-target": (lambda: _resample_from(128.0), InvalidCutoff, "must be below"),
    # no fraction of denominator up to 10**6 lies within 1e-9 of the ratio
    "resample-irrational": (lambda: _resample_from(math.pi * 1e6), InvalidCutoff, "rationally"),
    "taps-no-degree": (lambda: generate_m_sequence((5, 1)), NotPrimitive, "degree-6"),
    "seed-five-bits": (lambda: generate_m_sequence(init=(1, 0, 0, 0, 0)), InvalidSeed, "6 bits"),
    # the register runs into all ones and never returns to its start
    "taps-not-maximal": (
        lambda: generate_m_sequence((6, 6, 1), init=(1, 0, 0, 0, 0, 0)),
        NotPrimitive,
        "do not yield a maximal-length sequence",
    ),
    "gold-modulated": (lambda: gold_set(CODES[0], CODES[1]), LengthMismatch),
    "xcorr-lengths": (
        lambda: periodic_cross_correlation(CODES[0], generate_m_sequence()), LengthMismatch
    ),
    "notch-at-nyquist": (
        lambda: FilterSpec(kind="notch", center_hz=90.0).design(180.0), InvalidCutoff, "Nyquist"
    ),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_arguments_raise_data_errors(name):
    call, error, *message = MALFORMED[name]
    assert issubclass(error, DataError)
    with pytest.raises(error, match=message[0] if message else None):
        call()
