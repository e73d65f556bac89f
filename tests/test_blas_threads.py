"""Decoding results must not depend on the BLAS thread count.

The suite runs with one OpenBLAS thread (see conftest.py), so this test
decodes one small session in fresh interpreters under 1 and 2 threads and
compares what they return.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json
from cvepdecode.codegen import default_code_set
from cvepdecode.evaluate import METHOD_TAGS, DecoderBank, decode_session
from cvepdecode.simulate import ForwardModel, synthesize_session

codes = default_code_set(5)
session = synthesize_session(2, ForwardModel(snr=0.05), seed=11, codes=codes, dur_s=2.1)
bank = DecoderBank(codes, max_dur_s=2.1)
out = {}
for tag in METHOD_TAGS:
    outcomes = decode_session(session, tag, 2.1, bank)
    out[tag] = [[o.label for o in outcomes], [o.scores.tolist() for o in outcomes]]
print(json.dumps(out))
"""


def _decode_with_threads(n: int) -> dict:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n), "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True,
        check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_results_independent_of_blas_threads():
    one, two = _decode_with_threads(1), _decode_with_threads(2)
    assert one.keys() == two.keys()
    for tag in one:
        labels_1, scores_1 = one[tag]
        labels_2, scores_2 = two[tag]
        assert labels_1 == labels_2, tag
        np.testing.assert_allclose(scores_2, scores_1, rtol=1e-9, atol=0.0, err_msg=tag)
