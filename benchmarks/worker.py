"""One benchmark process: generate inputs, time a cold set-up, or run a
workload.

    python3 benchmarks/worker.py gen   --workload W --seed N --workdir D [--trace]
    python3 benchmarks/worker.py setup --workload W --workdir D
    python3 benchmarks/worker.py run   --workload W --seconds S --workdir D [--rounds R] [--trace]

Each role prints one JSON object as its last line of standard output.
``run.py`` starts these processes; run it instead of this file.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracing import Tracer, install, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

METHODS = ("cca_e1", "cca_ec", "umm_t11", "umm_tcw")
N_CODES = 20
#: signal/noise power ratio (-13 dB): at 4.2 s umm_t11 gets 70-90 % of
#: trials right, so even a short run shows every method above chance
SNR = 0.05
ONLINE_DURATION_S = 4.2
CURVE_DURATIONS_S = (1.05, 4.2, 10.5, 31.5)
SWEEP_CUTOFFS_HZ = (20.0, 40.0, 60.0)      # lowpass axis; highpass stays at 6 Hz
PROBE_DURATION_S = 1.05
PROBE_SEED = 0
#: decisions per method whose labels are digested, to compare label
#: sequences between runs of the same seed (for example across BLAS
#: thread settings)
LABEL_PREFIX = 12
#: one-sided binomial p-value below which a method counts as above chance
CHANCE_ALPHA = 1e-3


@dataclass(frozen=True)
class Workload:
    n_runs: int        # blocks of all 20 codes, one trial per code
    trial_s: float     # simulated trial length; also the set-up bank's reach


WORKLOADS = {
    "online": Workload(n_runs=2, trial_s=ONLINE_DURATION_S),
    "curve": Workload(n_runs=1, trial_s=31.5),
    "sweep": Workload(n_runs=1, trial_s=31.5),
}


def import_program():
    """Import cvepdecode from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import cvepdecode

    if not Path(cvepdecode.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cvepdecode imported from {cvepdecode.__file__}, not {SRC}")
    return cvepdecode


def emit(obj: dict) -> None:
    print(json.dumps(obj), flush=True)


def samples_digest(trials) -> str:
    """SHA-256 of the trials' samples as the archive stores them (float32)."""
    import numpy as np

    digest = hashlib.sha256()
    for trial in trials:
        digest.update(np.ascontiguousarray(trial.samples, dtype="<f4").tobytes())
    return digest.hexdigest()


# -- generation ----------------------------------------------------------------

def generate(wl: Workload, seed: int, archive_path: Path, tracer: Tracer | None) -> dict:
    from cvepdecode import archive, codegen, simulate

    if tracer is not None:
        install(tracer)
    codes = codegen.default_code_set(N_CODES)
    session = simulate.synthesize_session(
        wl.n_runs, simulate.ForwardModel(snr=SNR), seed=seed, codes=codes, dur_s=wl.trial_s
    )
    archive.write_archive(session, archive_path)
    out = {
        "samples_sha256": samples_digest(session.trials),
        "labels": [t.code_index_true for t in session.trials],
        "archive_bytes": archive_path.stat().st_size,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, 1)
        out["layers"] = {k: layers[k] for k in ("simulate.session_s", "archive.write_s")}
    return out


# -- set-up --------------------------------------------------------------------

def setup(wl: Workload, archive_path: Path):
    """What a cold process does before its first decision: the code set,
    the session, and a DecoderBank reaching the longest trial."""
    from cvepdecode import archive, codegen, evaluate

    codes = codegen.default_code_set(N_CODES)
    session = archive.read_archive(archive_path)
    bank = evaluate.DecoderBank(codes, max_dur_s=wl.trial_s)
    return codes, session, bank


# -- workloads -----------------------------------------------------------------

@dataclass
class Decision:
    method: str
    condition: float     # duration (online, curve) or lowpass cutoff (sweep)
    trial: int
    round: int
    outcome: object


class Run:
    """Counts, times and decisions of one workload run."""

    def __init__(self, n_trials: int):
        self.n_trials = n_trials
        self.attempted = 0
        self.failed = 0
        self.decisions: list[Decision] = []
        self.method_n = {m: 0 for m in METHODS}
        # ms per decision: one sample per decision on online, per call on
        # curve and sweep (the call's time over its decisions)
        self.samples_ms = {m: [] for m in METHODS}
        self.round_rates: list[float] = []     # decisions per second, per round
        self.problems: list[str] = []
        self.rounds = 0
        self.wall_s = 0.0
        self.captured: dict = {}


def rounds(seconds: float, n_rounds: int | None, tracer: Tracer | None, run: Run):
    """Yield round numbers: exactly n_rounds of them if given, else until
    the next round would end past ``seconds`` (judged by the last round's
    length). At least one round is run."""
    start = perf_counter()
    last = 0.0

    def more():
        if n_rounds is not None:
            return run.rounds < n_rounds
        return run.rounds == 0 or (perf_counter() - start) + last <= seconds

    while more():
        run.rounds += 1
        if tracer is not None:
            tracer.round = run.rounds
        done = sum(run.method_n.values())
        t0 = perf_counter()
        yield run.rounds
        last = perf_counter() - t0
        run.round_rates.append((sum(run.method_n.values()) - done) / last)
    run.wall_s = perf_counter() - start


def record_decode_session(evaluate, sink: list) -> None:
    """Keep the outcomes of every decode_session call, so the decisions made
    inside decoding_curve and bandpass_sweep can be checked one by one."""
    original = evaluate.decode_session

    @functools.wraps(original)
    def recorded(*args, **kwargs):
        outcomes = original(*args, **kwargs)
        sink.append(outcomes)
        return outcomes

    evaluate.decode_session = recorded


def run_online(session, bank, seconds, n_rounds, tracer, errors) -> Run:
    """Closed loop, one user: each trial is decided at 4.2 s by the four
    methods in a fixed order, each carrying its own cumulative state. The
    session is replayed from fresh states when it runs out."""
    from cvepdecode import cca, umm

    n_samples = int(round(ONLINE_DURATION_S * session.fs))
    run = Run(session.n_trials)
    states: dict = {}

    def decide(tag, trial, state):
        if tag.startswith("cca"):
            decoder = bank.cca(n_samples)
            outcome = decoder.decode(trial, state)
            if state is not None:
                state = decoder.update_cumulative(state, trial, outcome.label)
        else:
            decoder = bank.umm()
            ep = umm.slice_epochs(trial.prefix(ONLINE_DURATION_S))
            outcome = decoder.decode_epochs(ep, state)
            if state is not None:
                state = decoder.update_cumulative(state, ep, outcome)
        return outcome, state

    for r in rounds(seconds, n_rounds, tracer, run):
        idx = (r - 1) % session.n_trials
        if idx == 0:
            states = {
                "cca_e1": None,
                "cca_ec": cca.CcaState(mode=cca.MODE_CUMULATIVE),
                "umm_t11": None,
                "umm_tcw": umm.UmmState(mode=umm.MODE_CUMULATIVE),
            }
        trial = session.trials[idx]
        for tag in METHODS:
            run.attempted += 1
            t0 = perf_counter()
            try:
                outcome, states[tag] = decide(tag, trial, states[tag])
            except errors as exc:
                run.failed += 1
                run.problems.append(f"online {tag} trial {idx}: {exc!r}")
                continue
            run.samples_ms[tag].append((perf_counter() - t0) * 1e3)
            run.method_n[tag] += 1
            run.decisions.append(Decision(tag, ONLINE_DURATION_S, idx, r, outcome))
    return run


def _timed_calls(run: Run, sink: list, tag: str, conditions, r: int, call, errors):
    """Time one library call that decides every trial under each of
    ``conditions``; file its decisions, or count them all as failed."""
    planned = len(conditions) * run.n_trials
    run.attempted += planned
    mark = len(sink)
    t0 = perf_counter()
    try:
        result = call()
    except errors as exc:
        del sink[mark:]
        run.failed += planned
        run.problems.append(f"{tag} round {r}: {exc!r}")
        return None
    elapsed_ms = (perf_counter() - t0) * 1e3
    calls = sink[mark:]
    del sink[mark:]
    if len(calls) != len(conditions):
        run.problems.append(f"{tag}: {len(calls)} decode_session calls for {len(conditions)} conditions")
    for cond, outcomes in zip(conditions, calls):
        for i, outcome in enumerate(outcomes):
            run.decisions.append(Decision(tag, cond, i, r, outcome))
    n = sum(len(outcomes) for outcomes in calls)
    run.method_n[tag] += n
    run.samples_ms[tag].append(elapsed_ms / max(n, 1))
    return result, calls


def run_curve(session, bank, seconds, n_rounds, tracer, errors) -> Run:
    """decoding_curve per method, in the fixed order, over the session read
    back from its archive. Each call builds its own DecoderBank, as
    ``cvepdecode curve --method <tag>`` does, so every round does the same
    work, structure grams included."""
    from cvepdecode import evaluate

    run = Run(session.n_trials)
    sink: list = []
    record_decode_session(evaluate, sink)
    for r in rounds(seconds, n_rounds, tracer, run):
        for tag in METHODS:
            done = _timed_calls(
                run, sink, tag, CURVE_DURATIONS_S, r,
                lambda: evaluate.decoding_curve(session, tag, CURVE_DURATIONS_S),
                errors,
            )
            if done is not None:
                curve, calls = done
                check_counts(run, tag, curve.n_correct, calls, session)
    return run


def run_sweep(session, bank, seconds, n_rounds, tracer, errors) -> Run:
    """bandpass_sweep along the lowpass axis, once per method as
    ``cvepdecode sweep --methods <tag>`` would, at the full trial length."""
    from cvepdecode import evaluate

    run = Run(session.n_trials)
    duration = session.trials[0].n_samples / session.fs
    sink: list = []
    record_decode_session(evaluate, sink)

    def source(highpass_hz, lowpass_hz):
        filtered = evaluate.filtered_session(session, highpass_hz, lowpass_hz)
        run.captured.setdefault((highpass_hz, lowpass_hz), filtered.trials[0].samples)
        return filtered

    for r in rounds(seconds, n_rounds, tracer, run):
        for tag in METHODS:
            done = _timed_calls(
                run, sink, tag, SWEEP_CUTOFFS_HZ, r,
                lambda: evaluate.bandpass_sweep(
                    source, [tag], "lowpass", SWEEP_CUTOFFS_HZ, duration_s=duration
                ),
                errors,
            )
            if done is not None:
                grid, calls = done
                check_counts(run, tag, grid.n_correct[tag], calls, session)
    return run


RUNNERS = {"online": run_online, "curve": run_curve, "sweep": run_sweep}


# -- checks --------------------------------------------------------------------

def check_counts(run: Run, tag: str, reported, calls, session) -> None:
    """The library's accuracy counts must match its own decisions."""
    truth = [t.code_index_true for t in session.trials]
    recount = [sum(o.label == y for o, y in zip(outcomes, truth)) for outcomes in calls]
    if list(reported) != recount:
        run.problems.append(f"{tag}: reported correct counts {list(reported)} != {recount}")


def check(run: Run, wl_name: str, codes, session, bank, gen: dict) -> None:
    """Independent checks on the run's outputs; failures go to run.problems."""
    import numpy as np
    import reference as ref
    from cvepdecode import evaluate, simulate

    problems = run.problems
    bits = [c.bits for c in codes]
    truth = [t.code_index_true for t in session.trials]

    # the archive round trip gives back the generated session
    if samples_digest(session.trials) != gen["samples_sha256"] or truth != gen["labels"]:
        problems.append("session read back differs from the session written")
    if [c.bits for c in session.codes] != bits:
        problems.append("archive codes differ from default_code_set")

    # every decision: label in range, finite scores, confidence in [0, 1]
    for d in run.decisions:
        for p in ref.outcome_problems(d.outcome, N_CODES):
            problems.append(f"{d.method} trial {d.trial} at {d.condition}: {p}")

    # every method is above chance
    for tag in METHODS:
        mine = [d for d in run.decisions if d.method == tag]
        hits = sum(d.outcome.label == truth[d.trial] for d in mine)
        if not mine or ref.above_chance_p(hits, len(mine), N_CODES) >= CHANCE_ALPHA:
            problems.append(f"{tag}: {hits}/{len(mine)} correct is not above chance")

    # sampled decisions against the independent references
    stim = session.trials[0].n_samples
    if wl_name == "online":
        sample = {(0, ONLINE_DURATION_S)}
    elif wl_name == "curve":
        sample = {(0, CURVE_DURATIONS_S[0]), (0, CURVE_DURATIONS_S[-1])}
    else:
        sample = {(0, SWEEP_CUTOFFS_HZ[0])}
    checked = 0
    for d in run.decisions:
        if d.round > 1 or (d.trial, d.condition) not in sample:
            continue
        if wl_name == "sweep":
            x = run.captured[(evaluate.SWEEP_FIXED_HIGHPASS, d.condition)]
        else:
            x = session.trials[d.trial].samples[:, : int(round(d.condition * session.fs))]
        if d.method == "cca_e1":
            want = np.array([ref.cca_rho(x, b, stim) for b in bits])
            bad = np.max(np.abs(want - d.outcome.scores)) > ref.RHO_ATOL
        elif d.method == "umm_t11":
            want = ref.umm_scores(x, bits)
            bad = not np.allclose(d.outcome.scores, want, rtol=ref.UMM_RTOL, atol=0.0)
        else:
            continue
        checked += 1
        if bad:
            problems.append(f"{d.method} trial {d.trial} at {d.condition}: scores differ from reference")
    if checked != 2 * len(sample):
        problems.append(f"{checked} decisions checked against references, expected {2 * len(sample)}")

    # filtered trials against an SOS zero-phase bandpass
    if wl_name == "sweep":
        raw = session.trials[0].samples
        for (hp, lp), got in run.captured.items():
            want = ref.bandpass_zero_phase(raw, hp, lp)
            if np.max(np.abs(got - want)) > ref.FILTER_RTOL * np.max(np.abs(want)):
                problems.append(f"filtered_session at ({hp}, {lp}) Hz differs from the SOS reference")
        if len(run.captured) != len(SWEEP_CUTOFFS_HZ):
            problems.append(f"{len(run.captured)} of {len(SWEEP_CUTOFFS_HZ)} cutoffs captured")

    # a noiseless probe decodes every trial to its true code
    probe = simulate.synthesize_session(
        1, simulate.ForwardModel(snr=math.inf), seed=PROBE_SEED, codes=codes,
        dur_s=PROBE_DURATION_S,
    )
    for tag in ("cca_e1", "umm_t11"):
        outcomes = evaluate.decode_session(probe, tag, PROBE_DURATION_S, bank)
        wrong = sum(o.label != t.code_index_true for o, t in zip(outcomes, probe.trials))
        if wrong:
            problems.append(f"noiseless probe: {tag} got {wrong} of {probe.n_trials} trials wrong")


# -- results -------------------------------------------------------------------

def summary(run: Run, wl_name: str) -> dict:
    """Per-method medians of the ms-per-decision samples and the median
    per-round decision rate; medians keep one disturbed round or decision
    from moving a run's figure."""
    methods = {}
    for tag in METHODS:
        samples = run.samples_ms[tag]
        entry = {"n": run.method_n[tag], "ms": statistics.median(samples) if samples else 0.0}
        if not samples:
            run.problems.append(f"{tag}: no decision completed")
        if wl_name == "online" and len(samples) >= 10:
            entry["p90_ms"] = statistics.quantiles(samples, n=10)[-1]
        labels = [d.outcome.label for d in run.decisions if d.method == tag][:LABEL_PREFIX]
        entry["labels_sha1"] = hashlib.sha1(json.dumps(labels).encode()).hexdigest()[:12]
        methods[tag] = entry
    return {
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": run.rounds,
        "wall_s": run.wall_s,
        "decisions": sum(run.method_n.values()),
        "trials_per_s": statistics.median(run.round_rates),
        "methods": methods,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("role", choices=("gen", "setup", "run"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--rounds", type=int, help="run exactly this many rounds, whatever the time")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    wl = WORKLOADS[args.workload]
    archive_path = args.workdir / "session.cvep"
    tracer = Tracer() if args.trace else None

    t0 = perf_counter()
    program = import_program()
    if args.role == "gen":
        emit(generate(wl, args.seed, archive_path, tracer))
        return 0
    if tracer is not None:
        install(tracer)
    codes, session, bank = setup(wl, archive_path)
    setup_s = perf_counter() - t0
    if args.role == "setup":
        emit({"setup_s": setup_s})
        return 0

    errors = (program.errors.DataError, program.errors.NumericalError)
    run = RUNNERS[args.workload](session, bank, args.seconds, args.rounds, tracer, errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, **summary(run, args.workload)}
    if tracer is not None:
        tracer.unpatch()
        tracer.write(args.workdir / "spans.json")
        out["layers"] = layer_metrics(tracer.spans, run.rounds)
    gen = json.loads((args.workdir / "gen.json").read_text())
    check(run, args.workload, codes, session, bank, gen)
    out["problems"] = run.problems
    emit(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
