"""Calibration-free c-VEP decoding toolkit.

Stimulus code generation (Gold codes with run-length-limited modulation),
EEG preprocessing, reconvolution-CCA and UMM decoders (instantaneous and
cumulative), a synthetic forward-model simulator, and an evaluation
harness with decoding curves, bandpass sweeps, and Wilcoxon statistics.
"""

__version__ = "0.1.0"

from .codegen import BitSequence, default_code_set, gold_set, generate_m_sequence, modulate
from .encoding import StructureMatrix, structure_for_code
from .outcome import DecodeOutcome
from .sigproc import ContinuousRecording, FilterSpec, Trial
from .simulate import ForwardModel, Session, synthesize_session, synthesize_trial
