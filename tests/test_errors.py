import math

import numpy as np
import pytest

from cvepdecode.cca import CcaDecoder, CcaState
from cvepdecode.codegen import BitSequence, default_code_set, parse_code_set, select_subset
from cvepdecode.encoding import n_cycles_to_cover, structure_for_code, window_sums
from cvepdecode.evaluate import DecoderBank
from cvepdecode.errors import ConfigError, DataError, InvalidCodeSet, InvalidCutoff
from cvepdecode.errors import LabelOutOfRange, ShapeError
from cvepdecode.outcome import MODE_CUMULATIVE, DecodeOutcome
from cvepdecode.sigproc import ContinuousRecording, FilterSpec, Trial
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
    return decoder.update_cumulative(CcaState(mode=MODE_CUMULATIVE), trial, label)


def _umm_update(label):
    """A cumulative UMM update of a one-cycle trial decided as ``label``."""
    decided = DecodeOutcome(label=label, scores=np.zeros(len(CODES)), confidence=0.5)
    trial = Trial(samples=np.ones((2, 378)))
    return UmmDecoder(CODES, 1).update_cumulative(UmmState(mode=MODE_CUMULATIVE), trial, decided)


#: malformed arguments to constructors and kernels, each with the typed
#: error it must raise: a bare ValueError escapes the command line's
#: error handling and its exit codes
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
}


@pytest.mark.parametrize("call, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_arguments_raise_data_errors(call, error):
    assert issubclass(error, DataError)
    with pytest.raises(error):
        call()
