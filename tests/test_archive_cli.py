import json
import math
import os

import numpy as np
import pytest
import scipy
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvepdecode.archive import read_archive, write_archive
from cvepdecode.cli import main
from cvepdecode.codegen import default_code_set, load_codes, save_codes
from cvepdecode.errors import CorruptArchive, DataError, UnsupportedVersion
from cvepdecode.simulate import ForwardModel, Session, synthesize_session

CODES = default_code_set(3)


def _session(snr=math.inf, seed=0):
    return synthesize_session(1, ForwardModel(snr=snr), seed=seed, codes=CODES, dur_s=2.1)


class TestArchive:
    def test_round_trip_bit_exact(self, tmp_path):
        session = _session(snr=0.5)
        path = tmp_path / "s.cvep"
        # payload is float32, so quantize the reference the same way
        write_archive(session, path)
        back = read_archive(path)
        assert back.n_trials == session.n_trials
        assert back.fs == session.fs
        assert back.seed == session.seed
        assert [c.bits for c in back.codes] == [c.bits for c in session.codes]
        for orig, rt in zip(session.trials, back.trials):
            assert rt.code_index_true == orig.code_index_true
            assert np.array_equal(
                rt.samples, orig.samples.astype("<f4").astype(np.float64)
            )

    def test_rewrite_is_byte_identical(self, tmp_path):
        session = _session(snr=0.5)
        p1, p2 = tmp_path / "a.cvep", tmp_path / "b.cvep"
        write_archive(session, p1)
        write_archive(read_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_session_rejected(self, tmp_path):
        with pytest.raises(CorruptArchive):
            write_archive(Session(trials=[], codes=CODES), tmp_path / "e.cvep")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: [setattr(t, "samples", t.samples[:, :0]) for t in s.trials],
            lambda s: s.trials[1].samples.__setitem__((0, 5), np.nan),
            lambda s: s.trials[1].samples.__setitem__((0, 5), 1e39),
            lambda s: setattr(s.trials[0], "code_index_true", len(CODES)),
        ],
        ids=["no-samples", "nan-sample", "float32-overflow", "label-out-of-range"],
    )
    def test_writer_refuses_what_the_reader_rejects(self, tmp_path, edit):
        session = _session()
        edit(session)
        path = tmp_path / "s.cvep"
        with pytest.raises(CorruptArchive):
            write_archive(session, path)
        assert not path.exists()

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.cvep"
        write_archive(_session(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-17])
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_garbled_header(self, tmp_path):
        path = tmp_path / "s.cvep"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "s.cvep"
        write_archive(_session(), path)
        header, _, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["version"] = 99
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(UnsupportedVersion):
            read_archive(path)

    def test_unequal_code_lengths(self, tmp_path):
        path = tmp_path / "s.cvep"
        write_archive(_session(), path)
        header, _, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(header)
        doc["codes"][0] = doc["codes"][0][:-2]
        path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)
        with pytest.raises(CorruptArchive):
            read_archive(path)


def _edit_header(path, key, value):
    header, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(header)
    doc[key] = value
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload)


class TestArchiveHeaderChecks:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("labels", [0, 1]),       # fewer labels than the three trials
            ("labels", [0, 1, 3]),    # a label past the last of three codes
            ("labels", [0, -1, 2]),   # a negative label
            ("codes", []),            # no codes at all
            ("codes", [CODES[0].to_line()] * 3),   # one code three times
            ("fs_hz", 250.0),         # samples not at 180 Hz
            ("frame_rate_hz", 50.0),  # frames not at 60 Hz
            ("n_trials", math.inf),   # written as Infinity, read back as a float
            ("seed", [1, 2]),         # would be written into curve CSV rows
            # falsy labels that are neither a list nor null, once read as no labels
            ("labels", []),
            ("labels", 0),
            ("labels", False),
            ("labels", ""),
            ("labels", {}),
            # counts and the version must be JSON integers, not numbers int() accepts
            ("channels", "8"),
            ("channels", 8.9),
            ("trial_len_samples", 378.5),
            ("n_trials", 3.0),
            ("version", True),
            ("version", 1.0),
        ],
        ids=["labels-short", "label-too-large", "label-negative", "no-codes", "repeated-codes",
             "sample-rate", "frame-rate", "count-infinite", "seed-not-an-int",
             "labels-empty-list", "labels-zero", "labels-false", "labels-empty-string",
             "labels-empty-object", "channels-string", "channels-float", "trial-len-float",
             "n-trials-float", "version-bool", "version-float"],
    )
    def test_inconsistent_header(self, tmp_path, key, value):
        path = tmp_path / "s.cvep"
        write_archive(_session(), path)
        _edit_header(path, key, value)
        with pytest.raises(CorruptArchive):
            read_archive(path)

    def test_trial_count_checked_against_payload_first(self, tmp_path):
        # without labels, a trusted count would size a list of 10**12 entries
        path = tmp_path / "s.cvep"
        write_archive(_session(), path)
        _edit_header(path, "labels", None)
        _edit_header(path, "n_trials", 10**12)
        with pytest.raises(CorruptArchive):
            read_archive(path)


#: any JSON value, NaN and infinities included (Python's json reads them)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def valid_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "s.cvep"
    write_archive(_session(snr=0.5), path)
    header, _, payload = path.read_bytes().partition(b"\n")
    return path, json.loads(header), payload


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), drop=st.integers(0, 64), extra=st.binary(max_size=64))
def test_fuzzed_archive_loads_or_raises_data_error(valid_archive, data, drop, extra):
    """Header fields replaced by random JSON values (or the whole header
    replaced), payload truncated by `drop` bytes and extended by `extra`:
    read_archive returns a Session or raises a DataError, nothing else."""
    path, header, payload = valid_archive
    edits = st.dictionaries(st.sampled_from(sorted(header)), JSON_VALUES, max_size=3)
    doc = data.draw(edits.map(lambda e: {**header, **e}) | JSON_VALUES)
    path.write_bytes(json.dumps(doc).encode() + b"\n" + payload[: len(payload) - drop] + extra)
    try:
        session = read_archive(path)
    except DataError:
        return
    assert isinstance(session, Session)


SIMULATE = "simulate --n-codes 3 --runs 1 --out {out}"

#: command lines whose one malformed run parameter must be a data error
MALFORMED_RUN_PARAMETERS = {
    "decode-duration-nan": "decode --method cca_e1 --in {archive} --duration nan",
    "decode-duration-inf": "decode --method cca_e1 --in {archive} --duration inf",
    "decode-duration-negative": "decode --method cca_e1 --in {archive} --duration -1",
    "config-duration-nan": "--config {config} decode --method cca_e1 --in {archive}",
    "simulate-duration-0": SIMULATE + " --duration 0",
    "simulate-duration-nan": SIMULATE + " --duration nan",
    "simulate-duration-40": SIMULATE + " --duration 40",
    "simulate-snr-nan": SIMULATE + " --duration 2.1 --snr nan",
    "simulate-runs-0": SIMULATE + " --duration 2.1 --runs 0",
    "simulate-seed-negative": SIMULATE + " --duration 2.1 --seed -1",
    "codes-n-0": "codes --n 0 --out {out}",
}


def _simulate(tmp_path, name="s.cvep", extra=()):
    out = tmp_path / name
    rc = main(
        [
            "simulate",
            "--snr", "0",
            "--runs", "1",
            "--seed", "0",
            "--duration", "2.1",
            "--n-codes", "3",
            "--out", str(out),
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestCli:
    def test_codes_to_stdout(self, capsys):
        assert main(["codes", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(set(l) <= {"0", "1"} and len(l) == 126 for l in lines)

    def test_simulate_writes_archive_and_meta(self, tmp_path):
        out = _simulate(tmp_path)
        assert out.exists()
        meta = json.loads((tmp_path / "s.cvep.meta.json").read_text())
        assert meta["tool"] == "cvepdecode"
        assert meta["command"] == "simulate"
        assert meta["config"]["seed"] == 0
        env = meta["environment"]
        assert env["numpy"] == np.__version__
        assert env["scipy"] == scipy.__version__
        assert set(env["blas"]) == {"numpy", "scipy"} and all(env["blas"].values())
        assert env["openblas_num_threads"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert env["cpu_count"] == os.cpu_count()

    def test_decode_round_trip(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        assert main(["decode", "--method", "cca_e1", "--in", str(out), "--duration", "2.1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,true_label,predicted,correct,confidence"
        assert len(lines) == 4  # header + 3 trials
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "1"  # snr=0 dB -> ratio 1.0, clean enough

    def test_decode_defaults_to_the_trial_length(self, tmp_path):
        arc = _simulate(tmp_path, extra=("--duration", "4.2"))
        given, default = tmp_path / "given.csv", tmp_path / "default.csv"
        argv = ["decode", "--method", "cca_e1", "--in", str(arc), "--out"]
        assert main([*argv, str(given), "--duration", "4.2"]) == 0
        assert main([*argv, str(default)]) == 0
        assert default.read_bytes() == given.read_bytes()
        meta = json.loads((tmp_path / "default.csv.meta.json").read_text())
        assert meta["config"]["duration"] == 4.2

    def test_curve_caps_durations_to_trial_length(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        assert main(["curve", "--method", "umm_t11", "--in", str(out)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,duration_s,seed,n_trials,n_correct,accuracy"
        durs = [float(l.split(",")[1]) for l in lines[1:]]
        assert durs == [1.05, 2.1]

    def test_curve_on_trials_shorter_than_any_duration_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path, extra=("--duration", "0.9"))
        assert main(["curve", "--method", "umm_t11", "--in", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_umm_on_two_epochs_exit_2(self, tmp_path, capsys):
        # 0.32 s is 57 samples, two epochs: too few for UMM's covariance
        out = _simulate(tmp_path, extra=("--duration", "4.2"))
        assert main(["decode", "--method", "umm_t11", "--in", str(out), "--duration", "0.32"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "need at least 3 epochs, got 2" in err

    @pytest.mark.parametrize(
        "argv",
        [["curve", "--method", "cca_e1"], ["sweep", "--axis", "lowpass", "--methods", "umm_t11"]],
        ids=["curve", "sweep"],
    )
    def test_unlabeled_session_accuracy_exit_2(self, tmp_path, capsys, argv):
        # an archive without labels has no accuracy to report, not 0.000000
        out = _simulate(tmp_path)
        _edit_header(out, "labels", None)
        assert main([*argv, "--in", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:") and "no true label" in captured.err
        # decode still prints its rows, with the label cells empty
        assert main(["decode", "--method", "cca_e1", "--in", str(out), "--duration", "2.1"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert len(rows) == 3 and all(r[1] == r[3] == "" for r in rows)

    def test_sweep_runs_single_method(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        assert main(["sweep", "--axis", "lowpass", "--in", str(out), "--methods", "cca_e1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,axis,cutoff_hz,n_trials,n_correct,accuracy"
        assert len(lines) == 10  # header + 9 cutoffs

    @pytest.mark.parametrize("methods", ["cca_e1,CCA_E1", ","], ids=["repeated", "empty"])
    def test_sweep_of_repeated_or_no_method_exit_2(self, tmp_path, capsys, methods):
        out = _simulate(tmp_path)
        assert main(["sweep", "--axis", "lowpass", "--in", str(out), "--methods", methods]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("data error:")

    def test_stats_between_two_curves(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["curve", "--method", "cca_e1", "--in", str(out), "--out", str(a)]) == 0
        text = a.read_text()
        rows = text.strip().splitlines()
        # fabricate a strictly worse curve for the b side
        worse = [rows[0]]
        for row in rows[1:]:
            cells = row.split(",")
            cells[-1] = f"{max(float(cells[-1]) - 0.4, 0.0):.6f}"
            worse.append(",".join(cells))
        b.write_text("\n".join(worse) + "\n")
        assert main(["stats", "--a", str(a), "--b", str(b)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_pairs"] == 2
        assert 0.0 < report["p_value"] <= 1.0

    def test_stats_degenerate_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        a = tmp_path / "a.csv"
        assert main(["curve", "--method", "cca_e1", "--in", str(out), "--out", str(a)]) == 0
        assert main(["stats", "--a", str(a), "--b", str(a)]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "a_rows",
        [
            ["cca_e1,1.05,0,20,10,nan", "cca_e1,2.1,0,20,12,0.6"],
            ["cca_e1,1.05,0,20,10,inf", "cca_e1,2.1,0,20,12,0.6"],
            ["cca_e1,1.05,0,20,10,1.5", "cca_e1,2.1,0,20,12,0.6"],
            # two methods' curves concatenated: each point twice
            ["cca_e1,1.05,0,20,10,0.5", "cca_e1,2.1,0,20,12,0.6",
             "umm_t11,1.05,0,20,19,0.95", "umm_t11,2.1,0,20,20,1.0"],
            ["cca_e1,1.05", "cca_e1,2.1,0,20,12,0.6"],
            ["cca_e1,1.05,0,20,10,0.5,7", "cca_e1,2.1,0,20,12,0.6"],
        ],
        ids=["nan", "inf", "above_one", "repeated_point", "short_row", "long_row"],
    )
    def test_stats_malformed_curve_exit_2(self, tmp_path, capsys, a_rows):
        header = "method,duration_s,seed,n_trials,n_correct,accuracy"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        a.write_text("\n".join([header, *a_rows]) + "\n")
        b.write_text(f"{header}\ncca_e1,1.05,0,20,2,0.1\ncca_e1,2.1,0,20,3,0.15\n")
        assert main(["stats", "--a", str(a), "--b", str(b)]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    def test_usage_error_exit_1(self, capsys):
        assert main(["decode", "--in", "x.cvep"]) == 1  # missing --method
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_archive_exit_2(self, tmp_path, capsys):
        rc = main(["decode", "--method", "cca_e1", "--in", str(tmp_path / "no.cvep")])
        assert rc == 2
        capsys.readouterr()

    def test_corrupt_archive_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        out.write_bytes(out.read_bytes()[:-9])
        assert main(["decode", "--method", "cca_e1", "--in", str(out)]) == 2
        capsys.readouterr()

    def test_label_out_of_range_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        _edit_header(out, "labels", [0, 1, 3])
        assert main(["decode", "--method", "cca_e1", "--in", str(out), "--duration", "2.1"]) == 2
        capsys.readouterr()

    def test_unsupported_sample_rate_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        _edit_header(out, "fs_hz", 250.0)
        # 1.05 s at 250 Hz fits in the stored samples, so only the rate check stops it
        assert main(["decode", "--method", "cca_e1", "--in", str(out), "--duration", "1.05"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("method", ["umm_t11", "cca_e1"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_exit_2(self, tmp_path, capsys, method, value):
        out = _simulate(tmp_path)
        header, _, payload = out.read_bytes().partition(b"\n")
        samples = np.frombuffer(payload, dtype="<f4").copy()
        samples[100] = value
        out.write_bytes(header + b"\n" + samples.tobytes())
        assert main(["decode", "--method", method, "--in", str(out), "--duration", "2.1"]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "codes",
        [5, [1, 2], ["", " ", ""], ["010101"] * 3],
        ids=["not-a-list", "not-strings", "empty-strings", "repeated"],
    )
    def test_codes_of_wrong_type_exit_2(self, tmp_path, capsys, codes):
        out = _simulate(tmp_path)
        _edit_header(out, "codes", codes)
        assert main(["decode", "--method", "cca_e1", "--in", str(out), "--duration", "2.1"]) == 2
        assert capsys.readouterr().err.startswith("data error:")

    @pytest.mark.parametrize(
        "lines",
        [["0101", "01x1"], ["0101", "0110", "0101"], ["0101", "011"], [], None],
        ids=["malformed", "repeated", "unequal-lengths", "empty", "missing"],
    )
    def test_bad_code_file_exit_2(self, tmp_path, capsys, lines):
        codes = tmp_path / "c.txt"
        if lines is not None:
            codes.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "s.cvep"
        rc = main(["simulate", "--codes", str(codes), "--runs", "1", "--duration", "2.1",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        MALFORMED_RUN_PARAMETERS.values(),
        ids=MALFORMED_RUN_PARAMETERS.keys(),
    )
    def test_malformed_run_parameter_exit_2(self, tmp_path, capsys, argv):
        archive = _simulate(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"duration": "nan"}))
        out = tmp_path / "out"
        rc = main(argv.format(archive=archive, config=config, out=out).split())
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("data error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["umm_t11", "umm_tcw", "cca_e1"])
    def test_flat_trial_exit_3(self, tmp_path, capsys, method):
        session = _session()
        session.trials[0].samples[:] = 0.0
        path = tmp_path / "flat.cvep"
        write_archive(session, path)
        assert main(["decode", "--method", method, "--in", str(path), "--duration", "2.1"]) == 3
        assert capsys.readouterr().err.startswith("numerical failure:")

    def test_unknown_method_exit_2(self, tmp_path, capsys):
        out = _simulate(tmp_path)
        assert main(["decode", "--method", "lda", "--in", str(out)]) == 2
        capsys.readouterr()

    def test_config_file_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"seed": 7, "runs": 1, "n-codes": 3, "duration": 2.1, "snr": 0, "noise": None}))
        out = tmp_path / "s.cvep"
        rc = main(["--config", str(cfg), "simulate", "--seed", "9", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / "s.cvep.meta.json").read_text())
        assert meta["config"]["seed"] == 9     # explicit flag wins
        assert meta["config"]["runs"] == 1     # config default applied
        assert meta["config"]["noise"] == "white"   # null leaves the default

    @pytest.mark.parametrize(
        "config",
        [{"runs": "abc"}, {"noise": "purple"}, [1, 2], {"bogus": 1}, {"codes_file": "c.txt"}],
        ids=["runs-not-an-int", "noise-not-a-choice", "not-an-object", "unknown-key",
             "destination-not-a-flag"],
    )
    def test_bad_config_value_exit_2(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "s.cvep"
        assert main(["--config", str(cfg), "simulate", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("data error:")
        assert not out.exists()

    def test_config_keys_are_flag_names(self, tmp_path, capsys):
        codes = tmp_path / "c.txt"
        save_codes(default_code_set(4)[1:], codes)
        arc = tmp_path / "s.cvep"
        cfg = tmp_path / "cfg.json"
        # one file for both subcommands: simulate ignores "in", decode ignores "codes"
        cfg.write_text(json.dumps(
            {"codes": str(codes), "in": str(arc), "runs": 1, "duration": 2.1, "n_codes": 3}))
        assert main(["--config", str(cfg), "simulate", "--out", str(arc)]) == 0
        meta = json.loads((tmp_path / "s.cvep.meta.json").read_text())
        assert meta["config"]["codes_file"] == str(codes)
        assert [c.bits for c in read_archive(arc).codes] == [c.bits for c in load_codes(codes)]
        assert main(["--config", str(cfg), "decode", "--method", "cca_e1"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4  # header + 3 trials

    def test_config_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"runs": 1}))
        assert main(["--config", str(cfg), "simulate"]) == 1  # no --out
        assert capsys.readouterr().err.startswith("usage error:")

    def test_simulate_deterministic_archives(self, tmp_path):
        a = _simulate(tmp_path, "a.cvep")
        b = _simulate(tmp_path, "b.cvep")
        assert a.read_bytes() == b.read_bytes()

    def test_decode_deterministic_csv(self, tmp_path):
        arc = _simulate(tmp_path)
        c1, c2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        for c in (c1, c2):
            rc = main(
                [
                    "decode",
                    "--method", "umm_tcw",
                    "--in", str(arc),
                    "--duration", "2.1",
                    "--out", str(c),
                ]
            )
            assert rc == 0
        assert c1.read_bytes() == c2.read_bytes()
