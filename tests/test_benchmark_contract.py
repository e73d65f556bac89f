"""The names benchmarks/ uses still exist and work: one traced round of
each workload runner, on sessions small enough for the suite; and the
decoders' scores meet the benchmark's own references."""
import sys
from pathlib import Path

import numpy as np

from cvepdecode import evaluate, umm
from cvepdecode.codegen import default_code_set
from cvepdecode.errors import DataError, NumericalError
from cvepdecode.simulate import ForwardModel, synthesize_session, synthesize_trial

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
CODES = default_code_set(3)


def _session(dur_s):
    return synthesize_session(1, ForwardModel(snr=1.0), seed=0, codes=CODES, dur_s=dur_s)


def test_traced_workload_rounds_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # leave benchmarks/ as checked out
    # worker.record_decode_session replaces decode_session for good
    monkeypatch.setattr(evaluate, "decode_session", evaluate.decode_session)
    import tracing
    import worker

    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = list(tracer._patches)
    errors = (DataError, NumericalError)
    try:
        online_bank = evaluate.DecoderBank(CODES, max_dur_s=4.2)
        runs = [worker.run_online(_session(4.2), online_bank, 0.0, 1, tracer, errors)]
        long_session = _session(31.5)
        for runner in (worker.run_curve, worker.run_sweep):
            runs.append(runner(long_session, None, 0.0, 1, tracer, errors))
    finally:
        tracer.unpatch()

    for run in runs:
        assert run.failed == 0
        assert run.problems == []
        assert all(run.method_n[tag] > 0 for tag in worker.METHODS)
    assert tracing.layer_metrics(tracer.spans, 1)["encoding.bank_mb"] > 0
    assert patched and all(getattr(owner, attr) is original for owner, attr, original in patched)


def test_generation_and_set_up_roles_run(monkeypatch, tmp_path):
    # the code-set path: default_code_set -> select_subset, synthesize_session,
    # write_archive and read_archive -> parse_code_set, and DecoderBank
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import worker

    workload = worker.WORKLOADS["online"]
    archive = tmp_path / "s.cvep"
    gen = worker.generate(workload, 0, archive, None)
    codes, session, bank = worker.setup(workload, archive)
    assert len(codes) == worker.N_CODES and session.codes == codes and bank.codes == codes
    assert [t.code_index_true for t in session.trials] == gen["labels"]
    assert len(gen["labels"]) == workload.n_runs * worker.N_CODES
    assert worker.samples_digest(session.trials) == gen["samples_sha256"]
    assert archive.stat().st_size == gen["archive_bytes"]


def test_scores_within_the_benchmark_references(monkeypatch):
    # the benchmark's correctness gate, on one trial: a change that moves
    # the scores past the reference tolerances fails here first
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import reference

    codes = default_code_set(20)
    bits = [c.bits for c in codes]
    trial = synthesize_trial(codes[3], ForwardModel(snr=0.05), 31.5, seed=4, code_index_true=3)
    bank = evaluate.DecoderBank(codes, 31.5)
    for dur_s in (4.2, 31.5):
        prefix = trial.prefix(dur_s)
        # not shrunk all the way to mu*I: the lag sums enter the scores
        assert umm.estimate_covariance(umm.slice_epochs(prefix)).shrinkage_gamma < 0.99
        got = bank.umm().decode(prefix).scores
        want = reference.umm_scores(prefix.samples, bits)
        assert np.allclose(got, want, rtol=reference.UMM_RTOL, atol=0.0)
    # 4.2 s is two whole code cycles: no flash run is cut at the trial end
    prefix = trial.prefix(4.2)
    got = bank.cca(prefix.n_samples).decode(prefix).scores
    want = [reference.cca_rho(prefix.samples, b, trial.n_samples) for b in bits]
    assert np.abs(got - want).max() <= reference.RHO_ATOL
