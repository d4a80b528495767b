"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [ACCEPTANCE] line on success so a verbose run
reads as a checklist.  Tolerances and runtime budgets are asserted, not
aspirational.
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from summa.cesaro import cesaro_coefficients, cesaro_sigma, cesaro_t
from summa.checker import (MAIN_CONDITIONS, GrowthVerdict, check_main_theorem,
                           conclusion_diagnostic, dyadic_checkpoints,
                           growth_diagnostic)
from summa.experiment import (ExperimentConfig, builtin_family, load_config,
                              run)
from summa.functionals import reduction_identity_check
from summa.monotonicity import almost_increasing_diagnostic
from summa.oracle import rational_cesaro_coefficients, run_all_suites
from summa.sequences import CesaroParams, SequenceSpec, materialize

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# family name -> required params, covering the whole builtin catalog
ALL_FAMILIES = {
    "alternating_unit": {},
    "unit_tail": {},
    "power_decay": {"p": 1.0},
    "log_shift": {},
    "reciprocal_log": {},
    "almost_inc_example": {},
    "power_weight": {"q": 0.5},
}


def _announce(label: str) -> None:
    print(f"[ACCEPTANCE] {label}: PASS")


def _product_form(alpha: float, n_max: int) -> np.ndarray:
    # independent oracle: exp of a Neumaier-compensated sum of log1p(alpha/j)
    out = np.empty(n_max + 1)
    out[0] = 1.0
    s = 0.0
    c = 0.0
    for j in range(1, n_max + 1):
        term = math.log1p(alpha / j)
        t = s + term
        if abs(s) >= abs(term):
            c += (s - t) + term
        else:
            c += (term - t) + s
        s = t
        out[j] = math.exp(s + c)
    return out


def test_coefficients_match_product_form():
    start = time.perf_counter()
    for alpha in (-0.5, 0.25, 0.5, 1.0, 2.0):
        rec = cesaro_coefficients(alpha, 10000)
        ref = _product_form(alpha, 10000)
        assert np.max(np.abs(rec - ref) / ref) <= 1e-12
    exact = rational_cesaro_coefficients(Fraction(1), 10000)
    assert exact == tuple(Fraction(n + 1) for n in range(10001))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce("coefficient recurrence vs product form (n<=1e4, rel<=1e-12)")


def test_term_identity_across_families():
    start = time.perf_counter()
    n_max = 2000
    idx = np.arange(1.0, n_max + 1.0)
    for family, params in ALL_FAMILIES.items():
        # n_max + 1 terms from index 0, so sigma and t cover 1..n_max
        seq = materialize(SequenceSpec(family=family, n=n_max + 1,
                                       params=params, start=0))
        for alpha in (0.25, 0.5, 1.0):
            sigma = cesaro_sigma(seq, alpha)
            t = cesaro_t(seq, alpha)
            lhs = np.abs(np.diff(sigma.values))
            rhs = np.abs(t.values) / idx
            scale = np.maximum(lhs, rhs)
            mask = scale > 1e-300
            if np.any(mask):
                dev = np.max(np.abs(lhs - rhs)[mask] / scale[mask])
                assert dev <= 1e-10, (family, alpha, dev)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce("sigma-difference/t identity, all families (n<=2000, rel<=1e-10)")


def test_reduction_identities_term_wise():
    params = CesaroParams(alpha=1.0, k=1.5, beta=0.2)
    for family, fparams in (("alternating_unit", {}),
                            ("power_decay", {"p": 1.0})):
        a = materialize(SequenceSpec(family=family, n=10000, params=fparams,
                                     start=1))
        rep = reduction_identity_check(a, params, 10000)
        assert rep.max_rel_dev_classic <= 1e-12
        assert rep.max_rel_dev_indexed <= 1e-12
    _announce("named-weight reductions term-wise (m<=1e4, rel<=1e-12)")


def test_oracle_suites_clean_and_deterministic():
    start = time.perf_counter()
    first = run_all_suites(20260815)
    second = run_all_suites(20260815)
    assert [r.trials for r in first] == [200, 10000, 1000, 10000]
    for rep in first:
        assert rep.violations == 0, rep
        assert rep.first_violation_input is None
    assert [r.to_json() for r in first] == [r.to_json() for r in second]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _announce("exact rational oracle suites, zero violations, deterministic")


def test_almost_increasing_fixture():
    bump = materialize(SequenceSpec(family="almost_inc_example", n=1000,
                                    start=1))
    diag = almost_increasing_diagnostic(bump)
    assert abs(diag.inf_ratio - math.exp(-2.0)) <= 1e-3
    assert diag.almost_increasing_at_scale

    monotone = materialize(SequenceSpec(family="log_shift", n=1000, start=1))
    assert almost_increasing_diagnostic(monotone).inf_ratio == 1.0
    _announce("almost-increasing witness: n*e^((-1)^n) near e^-2, "
              "monotone at 1")


def test_f1_passes_all_records_and_conclusion():
    start = time.perf_counter()
    bundle = builtin_family("F1", 10000)
    report = check_main_theorem(bundle)
    assert tuple(r.condition for r in report.records) == MAIN_CONDITIONS
    assert report.all_passed, [r for r in report.records if not r.passed]
    _, conclusion = conclusion_diagnostic(bundle)
    assert conclusion.verdict is GrowthVerdict.BOUNDED_CONSISTENT
    assert conclusion.slope is not None and conclusion.slope < 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce("F1 at N=1e4: all 8 records pass, conclusion bounded")


def test_f3_negative_control(tmp_path):
    config = ExperimentConfig.from_json(
        {"mode": "check_main", "n": 10000, "family": "F3"})
    report = run(config, out_dir=tmp_path, quiet=True)
    assert report.exit_status != 0
    records = {r["condition"]: r
               for r in report.results["report"]["records"]}
    assert records["cond7"]["verdict"] == "growth_detected"
    _announce("F3 negative control: cond7 growth_detected, nonzero exit")


def test_slope_calibration_on_exact_powers():
    cps = dyadic_checkpoints(10000)
    for p in (0.0, 0.25, 0.5, 1.0):
        vals = np.power(np.asarray(cps, dtype=np.float64), p)
        diag = growth_diagnostic(vals, cps)
        assert diag.slope is not None
        assert abs(diag.slope - p) <= 1e-6, (p, diag.slope)
    _announce("growth-diagnostic slope recovers exact powers to 1e-6")


# sha256 of every artifact each shipped config writes (numpy 2.4, x86-64).
# A change that alters report bytes on purpose updates these digests and
# says why; any other change must leave them as they are.
SHIPPED_DIGESTS = {
    "alternating_dump": {
        "report.json": "cd80e5653690058f7b460544b2ac661989927ca6495cf6087cf698b42f96ebc8",
        "transforms.csv": "b434504318592589bd9f2558e82b3d33903422e77c73d75f984fb11851fbeb06",
    },
    "custom_bundle": {
        "report.json": "9c57b20e81b6257414fef144b72818c5273e52544a4e1407554f436c9dd5eb82",
        "trace_conclusion.csv": "ac8530999b68ad6a75d36b28ea316a9b78a114249f9168062cc23a5a48ce603b",
        "trace_cond11.csv": "b620198e32f7a588621ebb4c3d9fc914b8bfa3df27ab552c947fe64095daa382",
        "trace_series_nqx.csv": "c521a4d0461b66eb33cdcb24ca9839e1fb7be68e4f08cff2b6733827546c97b0",
    },
    "f1_main": {
        "report.json": "95db3721c9bbc8c875a3a806c8eced83949950d2a14cac443197e391c6f80722",
        "trace_conclusion.csv": "daf747070e63d0dfe474011666b6a19d9161da6e366ce38b8183d2f1aef0b545",
        "trace_cond11.csv": "be7690f7839caa2e9db56e1203fd7ce8aa274cbf21101861a0e879577dd47501",
        "trace_series_nqx.csv": "f01c616a8eda5537293d395badaa0805afcfd19b5f5293487a62eddc24fd2e9d",
    },
    "f2_theorem_a": {
        "report.json": "a6480fe8347f6910b19ac66753c4f1f6131fa645f6771af6c32c228257a8b79b",
        "trace_conclusion.csv": "67b933be682cc602f1835ad9eaa67c0528e1fe2d67ca2ebcada16a484eabec9f",
        "trace_cond11.csv": "be7690f7839caa2e9db56e1203fd7ce8aa274cbf21101861a0e879577dd47501",
        "trace_cond8.csv": "23dd2c586788484ffce25dfcb5558a74610dfd22aa59290a1e4b6f0401b96a12",
    },
    "f3_negative": {
        "report.json": "7e9c8846d2539c9dd0536513963de1072454483d956738c08b80ebed8a42716a",
        "trace_conclusion.csv": "a12d0e9c1a74e00521619ce0a31b7f8e6086e6066d78864f6f84eedaac9f07db",
        "trace_cond11.csv": "be7690f7839caa2e9db56e1203fd7ce8aa274cbf21101861a0e879577dd47501",
        "trace_series_nqx.csv": "e9cf41eb8015066b73b4ee6054b4e2d18940fe72c20829c247641cf739c7c9df",
    },
    "oracle_default": {
        "report.json": "0330b3d3b1a3042132ebe4c035016ceaade5bf7fe3f68474fb4993e3d69c56ac",
    },
}


def test_shipped_configs_are_byte_deterministic(tmp_path):
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert paths, "no bundled configs found"
    assert [p.stem for p in paths] == sorted(SHIPPED_DIGESTS)
    for path in paths:
        dirs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{path.stem}_{tag}"
            run(load_config(path), out_dir=out, quiet=True)
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        assert names == sorted(SHIPPED_DIGESTS[path.stem]), path.name
        for name in names:
            data = (dirs[0] / name).read_bytes()
            assert data == (dirs[1] / name).read_bytes(), (path.name, name)
            assert (hashlib.sha256(data).hexdigest()
                    == SHIPPED_DIGESTS[path.stem][name]), (path.name, name)
        body = json.loads((dirs[0] / "report.json").read_text())
        assert body["config"]["mode"] == load_config(path).mode
    _announce("bundled configs byte-identical across repeated runs and "
              "to their pinned digests")
