import numpy as np
import pytest

from cvepdecode.codegen import BitSequence
from cvepdecode.encoding import structure_for_code, window_sums
from cvepdecode.errors import ConfigError, DataError, InvalidCodeSet, InvalidCutoff, ShapeError
from cvepdecode.sigproc import FilterSpec
from cvepdecode.simulate import ForwardModel

#: malformed arguments to constructors and kernels, each with the typed
#: error it must raise: a bare ValueError escapes the command line's
#: error handling and its exit codes
MALFORMED = {
    "zero-mixing": (lambda: ForwardModel(mixing=np.zeros(8)), ConfigError),
    "noise-kind": (lambda: ForwardModel(noise="brown"), ConfigError),
    "filter-kind": (lambda: FilterSpec("lowpass"), ConfigError),
    "notch-no-center": (lambda: FilterSpec("notch"), ConfigError),
    "notch-q": (lambda: FilterSpec("notch", center_hz=50.0, q=0.0), ConfigError),
    "bandpass-no-lowpass": (lambda: FilterSpec("bandpass", highpass_hz=6.0), InvalidCutoff),
    "zero-cycles": (lambda: structure_for_code(BitSequence((0, 1)), 0), ConfigError),
    "bits": (lambda: BitSequence((0, 2)), InvalidCodeSet),
    "code-line": (lambda: BitSequence.from_line("01x0"), InvalidCodeSet),
    "window-frames": (lambda: window_sums(np.zeros((20, 3)), np.ones((1, 4))), ShapeError),
}


@pytest.mark.parametrize("call, error", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_arguments_raise_data_errors(call, error):
    assert issubclass(error, DataError)
    with pytest.raises(error):
        call()
