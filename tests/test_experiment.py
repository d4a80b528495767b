import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from summa import experiment
from summa.cesaro import cesaro_sigma, cesaro_t, w_sequence
from summa.checker import check_theorem_a, conclusion_diagnostic
from summa.cli import main
from summa.experiment import (BUILTIN_FAMILY_NAMES, ConfigError,
                              ExperimentConfig, builtin_family,
                              default_majorant, family_catalog_lines,
                              load_config, run)
from summa.functionals import CheckpointTrace
from summa.rendering import render_number
from summa.sequences import SequenceSpec, materialize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _cfg(obj):
    return ExperimentConfig.from_json(obj)


_BUNDLE = {"a": {"family": "alternating_unit"},
           "lambda": {"family": "unit_tail"},
           "X": {"family": "log_shift"},
           "weight": {"kind": "classic"}}


def _err(obj):
    with pytest.raises(ConfigError) as info:
        _cfg(obj)
    return info.value


# one number field of each kind set to a boolean, with its pointer
_BOOLEAN_FIELDS = [
    ({"mode": "check_main", "n": 64, "bundle": _BUNDLE,
      "params": {"alpha": True}}, "params.alpha"),
    ({"mode": "check_main", "n": 64, "family": "F1",
      "tolerances": {"slope": True}}, "tolerances.slope"),
    ({"mode": "check_main", "n": 64, "params": {"k": 1.5},
      "bundle": {**_BUNDLE, "lambda": {"family": "power_decay",
                                       "params": {"p": True}}}},
     "bundle.lambda.params.p"),
    ({"mode": "check_main", "n": 64, "params": {"k": 1.5},
      "bundle": {**_BUNDLE, "weight": {"kind": "indexed",
                                       "beta": False}}},
     "bundle.weight.beta"),
    ({"mode": "check_main", "n": 64, "params": {"k": 1.5},
      "bundle": {**_BUNDLE, "weight": {
          "kind": "explicit_phi",
          "phi": {"family": "power_weight", "params": {"q": True}}}}},
     "bundle.weight.phi.params.q"),
    ({"mode": "transform_dump", "sequence": {
        "family": "alternating_unit", "n": True, "start": 0}},
     "sequence.n"),
    ({"mode": "transform_dump", "sequence": {
        "family": "alternating_unit", "n": 8, "start": False}},
     "sequence.start"),
    ({"mode": "transform_dump", "sequence": {
        "family": "power_decay", "n": 8, "params": {"p": True}}},
     "sequence.params.p"),
    ({"mode": "transform_dump", "params": {"alpha": False},
      "sequence": {"family": "alternating_unit", "n": 8}},
     "params.alpha"),
    ({"mode": "check_main", "n": 64, "family": "F1",
      "checkpoints": [8, 16, True, 64]}, "checkpoints"),
    ({"mode": "oracle", "seed": 1, "trials": True}, "trials"),
]


class TestConfigValidation:
    def test_non_object(self):
        assert _err([1, 2]).pointer == "$"

    def test_unknown_field(self):
        e = _err({"mode": "check_main", "n": 64, "family": "F1", "bogus": 1})
        assert e.pointer == "bogus"

    def test_bad_mode(self):
        assert _err({"mode": "verify"}).pointer == "mode"

    def test_check_needs_n(self):
        assert _err({"mode": "check_main", "family": "F1"}).pointer == "n"
        assert _err({"mode": "check_main", "family": "F1", "n": 4}).pointer == "n"
        assert _err({"mode": "check_main", "family": "F1",
                     "n": True}).pointer == "n"
        # theorem A's cond8 grid over n - 2 indices needs n >= 10
        for n in (8, 9):
            assert _err({"mode": "check_theorem_a", "family": "F2",
                         "n": n}).pointer == "n"
        assert _cfg({"mode": "check_theorem_a", "family": "F2",
                     "n": 10}).n == 10

    def test_family_bundle_exclusive(self):
        assert _err({"mode": "check_main", "n": 64}).pointer == "family"
        e = _err({"mode": "check_main", "n": 64, "family": "F1",
                  "bundle": {}})
        assert e.pointer == "family"

    def test_unknown_family(self):
        assert _err({"mode": "check_main", "n": 64,
                     "family": "F9"}).pointer == "family"

    def test_family_forbids_params(self):
        e = _err({"mode": "check_main", "n": 64, "family": "F1",
                  "params": {"alpha": 1.0}})
        assert e.pointer == "params"

    def test_override_validation(self):
        e = _err({"mode": "check_main", "n": 64, "family": "F1",
                  "overrides": {"gamma": 1.0}})
        assert e.pointer == "overrides.gamma"
        e = _err({"mode": "check_main", "n": 64, "family": "F1",
                  "overrides": {"alpha": True}})
        assert e.pointer == "overrides.alpha"

    def test_bundle_forbids_overrides(self):
        e = _err({"mode": "check_main", "n": 64,
                  "bundle": {"a": {"family": "alternating_unit"},
                             "lambda": {"family": "unit_tail"},
                             "X": {"family": "log_shift"},
                             "weight": {"kind": "classic"}},
                  "params": {"alpha": 1.0},
                  "overrides": {"alpha": 0.5}})
        assert e.pointer == "overrides"

    def test_bundle_structure(self):
        base = {"mode": "check_main", "n": 64, "params": {"alpha": 1.0}}
        e = _err({**base, "bundle": {"lambda": {"family": "unit_tail"},
                                     "X": {"family": "log_shift"},
                                     "weight": {"kind": "classic"}}})
        assert e.pointer == "bundle.a"
        e = _err({**base, "bundle": {"a": {"family": "alternating_unit"},
                                     "lambda": {"family": "unit_tail"},
                                     "X": {"family": "log_shift"},
                                     "weight": {"kind": "smooth"}}})
        assert e.pointer == "bundle.weight.kind"
        e = _err({**base, "bundle": {"a": {"family": "alternating_unit"},
                                     "lambda": {"family": "unit_tail"},
                                     "X": {"family": "log_shift"},
                                     "weight": {"kind": "explicit_phi"}}})
        assert e.pointer == "bundle.weight.phi"

    def test_theorem_a_bundle_rejects_majorant(self):
        e = _err({"mode": "check_theorem_a", "n": 64,
                  "bundle": {"a": {"family": "alternating_unit"},
                             "lambda": {"family": "unit_tail"},
                             "X": {"family": "log_shift"},
                             "Q": {"family": "unit_tail"},
                             "weight": {"kind": "classic"}},
                  "params": {"alpha": 1.0}})
        assert e.pointer == "bundle.Q"

    def test_bundle_requires_params(self):
        e = _err({"mode": "check_main", "n": 64,
                  "bundle": {"a": {"family": "alternating_unit"},
                             "lambda": {"family": "unit_tail"},
                             "X": {"family": "log_shift"},
                             "weight": {"kind": "classic"}}})
        assert e.pointer == "params"

    def test_checkpoint_validation(self):
        base = {"mode": "check_main", "n": 100, "family": "F1"}
        assert _err({**base, "checkpoints": [3, 9, 27, 81]}).pointer == "checkpoints"
        assert _err({**base, "checkpoints": [25, 50, 100]}).pointer == "checkpoints"
        assert _err({**base, "checkpoints": [16, 32, 64, 128]}).pointer == "checkpoints"
        cfg = _cfg({**base, "checkpoints": [12, 25, 50, 100]})
        assert cfg.checkpoints == (12, 25, 50, 100)

    def test_tolerance_pointer(self):
        e = _err({"mode": "check_main", "n": 64, "family": "F1",
                  "tolerances": {"slope": -1.0}})
        assert e.pointer == "tolerances"

    def test_oracle_requirements(self):
        assert _err({"mode": "oracle"}).pointer == "seed"
        assert _err({"mode": "oracle", "seed": 2 ** 64}).pointer == "seed"
        assert _err({"mode": "oracle", "seed": -1}).pointer == "seed"
        assert _err({"mode": "oracle", "seed": True}).pointer == "seed"
        assert _err({"mode": "oracle", "seed": 1, "trials": 0}).pointer == "trials"
        assert _err({"mode": "oracle", "seed": 1, "n": 10}).pointer == "n"

    def test_transform_dump_requirements(self):
        assert _err({"mode": "transform_dump"}).pointer == "sequence"
        e = _err({"mode": "transform_dump",
                  "sequence": {"family": "alternating_unit", "n": 8,
                               "start": 1}})
        assert e.pointer == "sequence.start"
        e = _err({"mode": "transform_dump", "n": 8,
                  "sequence": {"family": "alternating_unit", "n": 8,
                               "start": 0}})
        assert e.pointer == "n"

    @pytest.mark.parametrize("obj, pointer", _BOOLEAN_FIELDS)
    def test_booleans_are_not_numbers(self, obj, pointer):
        # Python reads JSON true and false as 1 and 0
        e = _err(obj)
        assert e.pointer == pointer
        assert str(e) == f"{pointer}: must not be a boolean"

    @pytest.mark.parametrize("obj, pointer", [
        case for case in _BOOLEAN_FIELDS if case[1] != "checkpoints"])
    def test_strings_are_not_numbers(self, obj, pointer):
        # float() reads "0.5" as 0.5; a string in a checkpoint list was
        # already refused as not a list of integers
        text = json.dumps(obj).replace("true", '"1"').replace("false",
                                                              '"0.5"')
        e = _err(json.loads(text))
        assert e.pointer == pointer
        assert str(e) == f"{pointer}: must be a number"

    def test_boolean_tolerance_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "f1.json"
        cfg.write_text(json.dumps({"mode": "check_main", "family": "F1",
                                   "n": 64, "tolerances": {"slope": True}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: tolerances.slope: must not be a boolean\n")
        assert not out.exists()

    def test_out_must_be_string(self):
        assert _err({"mode": "oracle", "seed": 1, "out": 3}).pointer == "out"


class TestConfigRoundTrip:
    def test_shipped_configs_round_trip(self):
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert len(paths) >= 5
        for path in paths:
            cfg = load_config(path)
            assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_inline_round_trip(self):
        cfg = _cfg({"mode": "check_main", "n": 128, "family": "F1",
                    "overrides": {"alpha": 0.5, "k": 2},
                    "checkpoints": [16, 32, 64, 128],
                    "tolerances": {"slope": 0.2}})
        again = ExperimentConfig.from_json(cfg.to_json())
        assert again == cfg
        assert again.overrides == {"alpha": 0.5, "k": 2.0}


class TestBuiltinFamilies:
    def test_catalog_covers_names(self):
        lines = family_catalog_lines()
        assert len(lines) == len(BUILTIN_FAMILY_NAMES)
        for name, line in zip(BUILTIN_FAMILY_NAMES, lines):
            assert line.startswith(name)

    def test_f1_shape(self):
        b = builtin_family("F1", 200)
        assert b.label == "F1" and b.n == 200
        assert b.Q is not None and b.delta is not None
        assert b.params.alpha == 1.0 and b.params.k == 1.5
        # majorant built from the extended lambda dominates the in-range
        # differences strictly (padding is positive)
        dlam = np.abs(b.lam.values[:-1] - b.lam.values[1:])
        assert np.all(dlam < b.Q.values[:-1])
        assert np.all(b.Q.values > 0.0)

    def test_f2_shape(self):
        b = builtin_family("F2", 64)
        assert b.Q is None and b.delta is None
        n = np.arange(1.0, 65.0)
        assert np.array_equal(b.lam.values, np.power(n + 2.0, -1.0))

    def test_f3_shape(self):
        b = builtin_family("F3", 64)
        assert np.array_equal(b.lam.values, np.ones(64))
        n = np.arange(1.0, 65.0)
        assert np.array_equal(b.Q.values, np.power(n + 1.0, -3.0))
        assert np.array_equal(b.X.values, np.log(n + 2.0))

    def test_overrides_apply(self):
        b = builtin_family("F1", 64, {"alpha": 0.5, "epsilon": 0.75})
        assert b.params.alpha == 0.5 and b.params.epsilon == 0.75

    def test_bad_override_key(self):
        with pytest.raises(ConfigError):
            builtin_family("F1", 64, {"gamma": 1.0})

    def test_unknown_name_and_small_n(self):
        with pytest.raises(ValueError):
            builtin_family("F9", 64)
        with pytest.raises(ValueError):
            builtin_family("F1", 4)


class TestDefaultMajorant:
    def test_formula(self):
        lam_ext = materialize(SequenceSpec(family="power_decay", n=9,
                                           params={"p": 1.0}, start=1))
        q = default_majorant(lam_ext)
        assert q.start_index == 1 and len(q) == 8
        n = np.arange(1.0, 9.0)
        expect = np.abs(lam_ext.values[:-1] - lam_ext.values[1:]) \
            + np.power(n + 1.0, -3.0)
        assert np.array_equal(q.values, expect)


class TestRunCheckModes:
    def test_f1_run_passes_with_artifacts(self, tmp_path):
        cfg = _cfg({"mode": "check_main", "n": 10000, "family": "F1"})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_status == 0
        for name in ("report.json", "trace_cond11.csv",
                     "trace_conclusion.csv", "trace_series_nqx.csv"):
            assert (tmp_path / name).is_file()

        lines = (tmp_path / "trace_cond11.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,partial_sum,reference,ratio"
        cps = [int(row.split(",")[0]) for row in lines[1:]]
        assert cps == [156, 312, 625, 1250, 2500, 5000, 10000]
        assert all(len(row.split(",")) == 4 and "" not in row.split(",")
                   for row in lines[1:])

        conclusion = (tmp_path / "trace_conclusion.csv").read_text().splitlines()
        assert all(row.endswith(",,") for row in conclusion[1:])

        body = json.loads((tmp_path / "report.json").read_text())
        assert body["exit_status"] == 0
        assert body["results"]["report"]["all_passed"] is True
        assert body["results"]["conclusion"]["verdict"] == "bounded_consistent"

    def test_f3_run_fails_on_cond7(self, tmp_path):
        cfg = _cfg({"mode": "check_main", "n": 10000, "family": "F3"})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_status == 1
        records = {r["condition"]: r
                   for r in report.results["report"]["records"]}
        assert records["cond7"]["verdict"] == "growth_detected"
        failing = [c for c, r in records.items() if not r["passed"]]
        assert failing == ["cond7"]

    def test_theorem_a_run_writes_cond8_trace(self, tmp_path):
        cfg = _cfg({"mode": "check_theorem_a", "n": 2048, "family": "F2"})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_status == 0
        assert (tmp_path / "trace_cond8.csv").is_file()
        assert not (tmp_path / "trace_series_nqx.csv").exists()

    def test_out_dir_beats_config_out(self, tmp_path):
        cfg = _cfg({"mode": "transform_dump", "out": str(tmp_path / "a"),
                    "sequence": {"family": "alternating_unit", "n": 8,
                                 "start": 0}})
        run(cfg, out_dir=tmp_path / "b", quiet=True)
        assert (tmp_path / "b" / "report.json").is_file()
        assert not (tmp_path / "a").exists()


class TestRunOracleMode:
    def test_trials_override_and_exit(self, tmp_path):
        cfg = _cfg({"mode": "oracle", "seed": 5, "trials": 25})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_status == 0
        body = json.loads((tmp_path / "report.json").read_text())
        suites = body["results"]["suites"]
        assert [s["trials"] for s in suites] == [25, 25, 25, 25]
        assert all(s["violations"] == 0 for s in suites)


class TestRunTransformDump:
    def test_zero_sequence_renders_zero_cells(self, tmp_path):
        cfg = _cfg({"mode": "transform_dump",
                    "sequence": {"family": "power_decay", "n": 12,
                                 "start": 0, "params": {"p": 1.0, "c": 0.0}}})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.exit_status == 0
        lines = (tmp_path / "transforms.csv").read_text().splitlines()
        assert lines[0] == "n,a,sigma,t,w"
        assert len(lines) == 13
        assert lines[1] == "0,0,0,,"
        for i, row in enumerate(lines[2:], start=1):
            assert row == f"{i},0,0,0,0"

    def test_rows_reported(self, tmp_path):
        cfg = _cfg({"mode": "transform_dump",
                    "sequence": {"family": "alternating_unit", "n": 16,
                                 "start": 0}})
        report = run(cfg, out_dir=tmp_path, quiet=True)
        assert report.results["rows"] == 16


def ref_trace_csv(trace):
    """The per-row trace writer that the block writer replaced."""
    lines = ["checkpoint,partial_sum,reference,ratio"]
    for i, c in enumerate(trace.checkpoints):
        p = float(trace.partial_sums[i])
        if trace.reference is None:
            lines.append(f"{c},{render_number(p)},,")
        else:
            r = float(trace.reference[i])
            lines.append(f"{c},{render_number(p)},{render_number(r)},"
                         f"{render_number(p / r)}")
    return "\n".join(lines) + "\n"


def ref_transforms_csv(seq, sigma, t, w):
    """The per-row dump writer that the block writer replaced."""
    lines = ["n,a,sigma,t,w"]
    columns = []
    for col in (seq, sigma, t, w):
        values = () if col is None else memoryview(col.values)
        columns.append(itertools.chain([None] * (len(seq) - len(values)),
                                       values))
    for n, *row in zip(range(seq.start_index, seq.end_index + 1), *columns):
        lines.append(f"{n}," + ",".join(
            "" if v is None else render_number(v) for v in row))
    return "\n".join(lines) + "\n"


def _dump(tmp_path, family, rows, alpha, params=None):
    """transforms.csv of a dump run and the reference writer's text."""
    spec = {"family": family, "n": rows, "start": 0, "params": params or {}}
    run(_cfg({"mode": "transform_dump", "sequence": spec,
              "params": {"alpha": alpha}}), out_dir=tmp_path, quiet=True)
    seq = materialize(SequenceSpec.from_json(spec))
    t = cesaro_t(seq, alpha)
    w = w_sequence(t, alpha) if 0.0 < alpha <= 1.0 else None
    return ((tmp_path / "transforms.csv").read_text(),
            ref_transforms_csv(seq, cesaro_sigma(seq, alpha), t, w))


def _edge_rows(block):
    """Row counts at the block edges: k * block - 1, k * block and
    k * block + 1 for k = 1 and 3; a dump needs two rows at least."""
    return sorted({k * block + d for k in (1, 3) for d in (-1, 0, 1)
                   if k * block + d >= 2})


class TestCsvWriter:
    @pytest.mark.parametrize("block", [1, 2, 3, experiment._CSV_ROWS])
    def test_trace_bytes_at_block_edges(self, monkeypatch, block):
        monkeypatch.setattr(experiment, "_CSV_ROWS", block)
        rng = np.random.default_rng(block)
        for rows in _edge_rows(block):
            cps = tuple(range(1, rows + 1))
            sums = rng.standard_normal(rows) * 10.0 ** rng.integers(-6, 18, rows)
            ref = rng.uniform(0.5, 2.0, rows) * rng.choice([-1.0, 1.0], rows)
            for trace in (CheckpointTrace(cps, sums, ref),
                          CheckpointTrace(cps, sums),
                          CheckpointTrace(cps, np.zeros(rows))):
                text = b"".join(experiment._csv(
                    "checkpoint,partial_sum,reference,ratio", cps,
                    [trace.partial_sums, trace.reference,
                     None if trace.reference is None
                     else trace.partial_sums / trace.reference])).decode()
                assert text == ref_trace_csv(trace)
        assert text.splitlines()[1] == "1,0,,"

    @pytest.mark.parametrize("block", [1, 2, 3, experiment._CSV_ROWS])
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 0.0])
    def test_dump_bytes_at_block_edges(self, tmp_path, monkeypatch, block,
                                       alpha):
        monkeypatch.setattr(experiment, "_CSV_ROWS", block)
        for rows in _edge_rows(block):
            text, ref = _dump(tmp_path, "alternating_unit", rows, alpha)
            assert text == ref
            # w is defined for 0 < alpha <= 1 only
            w_blank = all(row.endswith(",") for row in text.splitlines()[1:])
            assert w_blank == (alpha in (0.0, 2.0))

    @pytest.mark.parametrize("block", [1, 2, 3, experiment._CSV_ROWS])
    @pytest.mark.parametrize("params", [{"p": 3.0}, {"p": 3.0, "c": 1e20}])
    def test_scientific_cells_inside_blocks(self, tmp_path, monkeypatch,
                                            block, params):
        # a_n = c (n + 1)**-3 crosses 1e-4 (or 1e16) at n = 21, so
        # render_number's cells and the kernel's share blocks and rows
        monkeypatch.setattr(experiment, "_CSV_ROWS", block)
        for rows in _edge_rows(block) + [64]:
            for alpha in (0.5, 1.0):
                text, ref = _dump(tmp_path, "power_decay", rows, alpha,
                                  params)
                assert text == ref
        cells = text.replace("\n", ",").split(",")
        assert any("e" in cell for cell in cells)
        assert any("." in cell and "e" not in cell for cell in cells)

    def test_zero_dump_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiment, "_CSV_ROWS", 2)
        text, ref = _dump(tmp_path, "power_decay", 7, 0.5,
                          {"p": 1.0, "c": 0.0})
        assert text == ref
        assert text.splitlines()[1:3] == ["0,0,0,,", "1,0,0,0,0"]

    def test_check_traces_match_reference(self, tmp_path):
        cfg = _cfg({"mode": "check_theorem_a", "n": 512, "family": "F2"})
        run(cfg, out_dir=tmp_path, quiet=True)
        bundle = builtin_family("F2", 512)
        traces = dict(check_theorem_a(bundle).traces)
        traces["conclusion"] = conclusion_diagnostic(bundle)[0]
        assert any(t.reference is None for t in traces.values())
        assert any(t.reference is not None for t in traces.values())
        for name, trace in traces.items():
            path = tmp_path / f"trace_{name.lower()}.csv"
            assert path.read_text() == ref_trace_csv(trace)


class TestDeterminism:
    def test_transform_dump_bytes(self, tmp_path):
        obj = {"mode": "transform_dump",
               "sequence": {"family": "alternating_unit", "n": 24,
                            "start": 0},
               "params": {"alpha": 0.5, "k": 1.5}}
        for sub in ("one", "two"):
            run(_cfg(obj), out_dir=tmp_path / sub, quiet=True)
        for name in ("report.json", "transforms.csv"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())

    def test_oracle_bytes(self, tmp_path):
        obj = {"mode": "oracle", "seed": 31, "trials": 20}
        for sub in ("one", "two"):
            run(_cfg(obj), out_dir=tmp_path / sub, quiet=True)
        assert ((tmp_path / "one" / "report.json").read_bytes()
                == (tmp_path / "two" / "report.json").read_bytes())


class TestCli:
    def test_family_list(self, capsys):
        assert main(["family", "--list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_FAMILY_NAMES:
            assert name in out

    def test_family_without_flag(self, capsys):
        assert main(["family"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_oracle_subcommand(self, tmp_path, capsys):
        code = main(["oracle", "--seed", "7", "--trials", "10",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "report.json").is_file()

    def test_oracle_rejects_bad_seed(self, tmp_path, capsys):
        code = main(["oracle", "--seed", "-1", "--out", str(tmp_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_run_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg = tmp_path / "dump.json"
        cfg.write_text(json.dumps({
            "mode": "transform_dump",
            "sequence": {"family": "alternating_unit", "n": 8, "start": 0}}))
        assert main(["run", str(cfg), "--out", str(tmp_path), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_run_summary_mentions_records(self, tmp_path, capsys):
        cfg = tmp_path / "f1.json"
        cfg.write_text(json.dumps({"mode": "check_main", "n": 512,
                                   "family": "F1"}))
        main(["run", str(cfg), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert "cond7" in out and "conclusion" in out
        assert "exit_status=" in out

    def test_slope_tolerance_flips_f3(self, tmp_path):
        code = main(["run", str(CONFIG_DIR / "f3_negative.json"),
                     "--out", str(tmp_path), "--quiet",
                     "--tolerance-slope", "0.2"])
        assert code == 0

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    def test_bad_slope_tolerance_is_config_error(self, tmp_path, capsys,
                                                 value):
        code = main(["run", str(CONFIG_DIR / "f1_main.json"),
                     "--out", str(tmp_path), "--quiet",
                     "--tolerance-slope", value])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --tolerance-slope:")
        assert "Traceback" not in err

    def test_bad_dump_sequence_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "dump.json"
        cfg.write_text(json.dumps({
            "mode": "transform_dump",
            "sequence": {"family": "power_weight", "n": 8,
                         "params": {"q": -1.0}, "start": 0}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sequence:")
        assert "q < 0" in err
        assert not out.exists()

    def test_overflowing_weight_fails_quietly(self, tmp_path, capsys):
        # k = 1e308 overflows n^(epsilon-k) |phi_n|^k to nan from n = 2 on
        cfg = tmp_path / "k_huge.json"
        cfg.write_text(json.dumps({"mode": "check_main", "family": "F1",
                                   "n": 1024, "overrides": {"k": 1e308}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == ""
        body = json.loads((out / "report.json").read_text())
        rec = next(r for r in body["results"]["report"]["records"]
                   if r["condition"] == "weight_monotone")
        assert rec["verdict"] == "fail"
        assert rec["first_violation"] == 2
        assert "non-finite" in rec["notes"]

    def test_slope_tolerance_rejected_for_oracle(self, tmp_path, capsys):
        code = main(["run", str(CONFIG_DIR / "oracle_default.json"),
                     "--out", str(tmp_path), "--quiet",
                     "--tolerance-slope", "0.2"])
        assert code == 2
        assert "--tolerance-slope" in capsys.readouterr().err


# n^180 is finite up to index 51 and overflows from 52 on: with blocks of 8
# indices, in the seventh block of a check's pass over n = 64
_LATE = {"family": "power_weight", "params": {"q": 180}}
_LAST = {"family": "power_weight", "params": {"q": 176}}


def _late_bundle(**roles):
    base = {"a": {"family": "alternating_unit"},
            "lambda": {"family": "power_decay",
                       "params": {"p": 2.0, "c0": 2.0}},
            "X": _LATE,
            "Q": {"family": "power_decay", "params": {"p": 2.5}},
            "delta": {"family": "power_decay", "params": {"p": 1.5}},
            "weight": {"kind": "classic"}}
    return {key: value for key, value in {**base, **roles}.items()
            if value is not None}


class TestErrorOrder:
    """Each role is made and judged a block at a time, and the errors keep
    the order they had when each role was made whole in turn: a role's
    non-finite value first, in bundle order, however late in the range it
    lies; then the record errors in table order."""

    @pytest.mark.parametrize("mode, params, bundle, message", [
        # a spec or domain error of a later role waits for the earlier ones
        ("check_main", {}, _late_bundle(a=_LATE, X={"family": "log_shift"},
                                        **{"lambda": {"family": "nope"}}),
         "bundle.a: sequence values must be finite"),
        ("check_main", {}, _late_bundle(Q={"family": "power_decay"}),
         "bundle.X: sequence values must be finite"),
        ("check_main", {}, _late_bundle(
            Q={"family": "power_decay", "params": {"p": 1, "c0": -3}}),
         "bundle.X: sequence values must be finite"),
        ("check_main", {}, _late_bundle(weight={"kind": "indexed",
                                                "beta": -1}),
         "bundle.X: sequence values must be finite"),
        ("check_main", {}, {**_late_bundle(), "label": 5},
         "bundle.X: sequence values must be finite"),
        # and so do the checks' own preconditions
        ("check_main", {}, _late_bundle(Q=None),
         "bundle.X: sequence values must be finite"),
        ("check_main", {"alpha": 1.5}, _late_bundle(),
         "bundle.X: sequence values must be finite"),
        ("check_theorem_a", {"alpha": 0.5}, _late_bundle(Q=None, delta=None),
         "bundle.X: sequence values must be finite"),
        # a record error found in the first block waits for the pass
        ("check_main", {}, _late_bundle(
            delta={"family": "power_decay", "params": {"p": 1, "c": -1}}),
         "bundle.X: sequence values must be finite"),
        ("check_main", {}, _late_bundle(
            X={"family": "log_shift"},
            delta={"family": "power_decay", "params": {"p": 1, "c": -1}}),
         "bundle: delta must be positive everywhere; first non-positive "
         "entry at index 1"),
        # roles in bundle order, the explicit phi last
        ("check_main", {"alpha": 0.5}, _late_bundle(a=_LATE),
         "bundle.a: sequence values must be finite"),
        ("check_main", {}, _late_bundle(
            X={"family": "log_shift"},
            weight={"kind": "explicit_phi", "phi": _LATE}),
         "bundle.weight.phi: sequence values must be finite"),
        # n^176 overflows from index 57 on, in the last block of the pass
        ("check_theorem_a", {}, _late_bundle(
            Q=None, delta=None, X={"family": "log_shift"},
            weight={"kind": "explicit_phi", "phi": _LAST},
            **{"lambda": _LAST}),
         "bundle.lambda: sequence values must be finite"),
    ])
    def test_first_error_wins(self, tmp_path, capsys, monkeypatch, mode,
                              params, bundle, message):
        from summa import accumulation
        monkeypatch.setattr(accumulation, "_BLOCK", 8)
        cfg = tmp_path / "late.json"
        cfg.write_text(json.dumps({"mode": mode, "n": 64, "bundle": bundle,
                                   "params": {"k": 1.5, **params}}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()
