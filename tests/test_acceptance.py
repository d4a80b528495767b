"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single [ACCEPTANCE] line on success so a verbose run
reads as a checklist.  Tolerances and runtime budgets are asserted, not
aspirational.
"""

import dataclasses
import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from summa.cesaro import cesaro_coefficients, cesaro_sigma, cesaro_t
from summa.checker import (MAIN_CONDITIONS, FamilyBundle, GrowthVerdict,
                           _x_almost_increasing, check_main_theorem,
                           conclusion_diagnostic, dyadic_checkpoints,
                           growth_diagnostic)
from summa.experiment import (ExperimentConfig, builtin_family,
                              default_majorant, load_config, run)
from summa.functionals import CheckpointTrace, WeightKind, WeightSpec
from summa.oracle import rational_cesaro_coefficients, run_all_suites
from summa.sequences import (CesaroParams, RealSequence, SequenceSpec,
                             materialize)

from helpers import drive, max_rel_deviation, reduced_terms, witness

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
    for family, fparams in (("alternating_unit", {}),
                            ("power_decay", {"p": 1.0})):
        a = materialize(SequenceSpec(family=family, n=10000, params=fparams,
                                     start=1))
        t = cesaro_t(a, 1.0).values
        for phi_form, reduced in reduced_terms(t, k=1.5, beta=0.2):
            assert max_rel_deviation(phi_form, reduced) <= 1e-12
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
    monotone = materialize(SequenceSpec(family="log_shift", n=1000, start=1))
    cps = dyadic_checkpoints(1000)
    bumped = drive(_x_almost_increasing, X=bump.values, checkpoints=cps)
    flat = drive(_x_almost_increasing, X=monotone.values, checkpoints=cps)
    # max_(v<=m) X_v / X_m is e^2 (m - 1) / m at odd m and 1 at even m: its
    # running max rises to e^2 by ever smaller steps, bounded.  A monotone
    # X's is 1, flat
    _, r = witness(bump.values)
    assert abs(r[-1] - math.exp(2)) <= 1e-2
    assert bumped.verdict == "bounded_consistent" and bumped.gamma < -1.25
    assert flat.passed and flat.notes == "gamma=-inf slope=0"
    _announce("almost-increasing witness: n*e^((-1)^n) bounded near e^2, "
              "a monotone X flat")


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


def test_verdicts_hold_at_every_scale(tmp_path):
    # F3's |lambda_n| X_n = log(n + 2) and its conclusion grow at every n;
    # F1 and F2 pass every record with a bounded conclusion at every n
    start = time.perf_counter()
    for n in (10 ** 4, 10 ** 5, 10 ** 6):
        for family, mode in (("F1", "check_main"), ("F2", "check_theorem_a"),
                             ("F3", "check_main")):
            report = run(ExperimentConfig.from_json(
                {"mode": mode, "family": family, "n": n}),
                out_dir=tmp_path / f"{family}_{n}", quiet=True)
            body = report.results
            records = {r["condition"]: r for r in body["report"]["records"]}
            conclusion = body["conclusion"]["verdict"]
            if family == "F3":
                assert report.exit_status == 1, n
                assert records["cond7"]["verdict"] == "growth_detected", n
                assert conclusion == "growth_detected", n
            else:
                assert report.exit_status == 0, (family, n)
                assert all(r["passed"] for r in records.values()), (family, n)
                assert conclusion == "bounded_consistent", (family, n)
    assert time.perf_counter() - start < 60.0
    _announce("F3 cond7 and conclusion growth, F1 and F2 pass, "
              "at n = 1e4, 1e5 and 1e6")


def _cell(n, a, lam, X, alpha=1.0):
    """A main-theorem bundle of builtin families at n: Q =
    default_majorant(lambda), delta_n = (n+1)^(-3/2), the classic weight,
    k = 3/2 and epsilon = 1."""
    def seq(spec, length):
        family, params = spec
        return materialize(SequenceSpec(family=family, n=length,
                                        params=params, start=1))
    lam_ext = seq(lam, n + 1)
    return FamilyBundle(
        label="cell", a=seq(a, n), lam=RealSequence(1, lam_ext.values[:-1]),
        X=seq(X, n), weight=WeightSpec(kind=WeightKind.CLASSIC),
        params=CesaroParams(alpha=alpha, k=1.5, beta=0.0, epsilon=1.0),
        Q=default_majorant(lam_ext),
        delta=seq(("power_decay", {"p": 1.5, "c0": 1.0}), n))


# X -> whether it is almost increasing: every X decaying to zero is not
X_CLASS_CASES = {
    ("reciprocal_log", ()): False,
    ("power_weight", (("q", -0.25),)): False,
    ("power_decay", (("p", 0.5),)): False,
    ("log_shift", ()): True,
    ("almost_inc_example", ()): True,
    ("power_weight", (("q", 0.25),)): True,
    ("unit_tail", ()): True,
}


def test_x_class_judges_closed_form_x():
    for n in (1 << 14, 1 << 18):
        for (family, params), almost_increasing in X_CLASS_CASES.items():
            bundle = dataclasses.replace(
                builtin_family("F1", n),
                X=materialize(SequenceSpec(family=family, n=n,
                                           params=dict(params), start=1)))
            rec = check_main_theorem(bundle).records[0]
            assert rec.condition == "X_class"
            assert rec.passed is almost_increasing, (n, family, rec)
            if not almost_increasing:
                assert rec.verdict == "growth_detected", (n, family, rec)
    _announce("X_class fails each decaying X and passes each almost "
              "increasing one, at 2**14 and 2**18")


# bundles whose verdicts once flipped between 2**14 and 2**18: the
# contradiction cell (a_n = 1/(n+1), lambda = 1 from n = 1, so |lambda_n|
# X_n and the conclusion grow like log n) at alpha = 1 and 1/2, and a
# series_nQX whose terms go like 1/n (Q is dominated by its (n+1)^-3 pad)
SCALE_CELLS = {
    "contradiction_alpha_1": (
        (("power_decay", {"p": 1.0}), ("unit_tail", {}), ("log_shift", {}),
         1.0), {"cond7", "conclusion"}),
    "contradiction_alpha_0.5": (
        (("power_decay", {"p": 1.0}), ("unit_tail", {}), ("log_shift", {}),
         0.5), {"cond7", "conclusion"}),
    "series_nQX_1_over_n": (
        (("alternating_unit", {}), ("power_decay", {"p": 3.0, "c0": 2.0}),
         ("almost_inc_example", {}), 1.0), {"series_nQX"}),
}


def test_cells_keep_their_verdicts_across_scales():
    for name, (cell, growing) in SCALE_CELLS.items():
        verdicts = []
        for n in (1 << 14, 1 << 18):
            bundle = _cell(n, *cell)
            report = check_main_theorem(bundle)
            by_name = {r.condition: r.verdict for r in report.records}
            by_name["conclusion"] = conclusion_diagnostic(
                bundle)[1].verdict.value
            verdicts.append(by_name)
            assert {c for c, v in by_name.items()
                    if v == "growth_detected"} == growing, (name, n, by_name)
        assert verdicts[0] == verdicts[1], name
    _announce("contradiction and series_nQX ~ 1/n cells: the same verdicts "
              "at 2**14 and 2**18")


def test_slope_calibration_on_exact_powers():
    cps = dyadic_checkpoints(10000)
    for p in (0.0, 0.25, 0.5, 1.0):
        vals = np.power(np.asarray(cps, dtype=np.float64), p)
        diag = growth_diagnostic(CheckpointTrace(cps, vals))
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
        "report.json": "585d317934984489e35d678cbd3ccdfabd889b5fe8c8a9a061c0837fa238b3cc",
        "trace_conclusion.csv": "45951268a4ae93091a01732f605eb81960814355053d0d5bfe965cd1cc93b98d",
        "trace_cond11.csv": "88a97a7fcc68773ed01f77bb0fbecd57ba3eda4a16dfefc62741daf7eea5b2e1",
        "trace_series_nqx.csv": "1879a2d218b59f7ef304601a5cc84297f511419cba26b9f6d6d366dec26776db",
    },
    "f1_main": {
        "report.json": "d18b318d0f04cccd0eecdb12650b66c9c663f3544ad5960103075edf44a50282",
        "trace_conclusion.csv": "3ba1271a312f97f93b4025c638f1237078fdda5152ed9aca17a650c255ae3029",
        "trace_cond11.csv": "545bffb2c8c380363558b51797789fe55adfc711b962014509c759336dea3e3a",
        "trace_series_nqx.csv": "264ad1acc7a92588b2d9bca913c9dd9ff70fe4a2f4b33d1b0238820934f0d918",
    },
    "f2_theorem_a": {
        "report.json": "3edebd80d9afc17ad3a1b01627c8926bafde5a5736d5f92b3d874a0b24be148f",
        "trace_conclusion.csv": "388a5eb82a0f971e346d8df8888409cc6a6f9421083db39cb42cb7b43be4f464",
        "trace_cond11.csv": "545bffb2c8c380363558b51797789fe55adfc711b962014509c759336dea3e3a",
        "trace_cond8.csv": "583c642ec829306e326fde007773afad5bb559e236f73a3e870a6046f6fcf8d9",
    },
    "f3_negative": {
        "report.json": "3b659c887897d9aa26bc746a8d9daf2c4bc79952b9258da5cf964f0ed1654d5d",
        "trace_conclusion.csv": "ae68870445aa9c1ce9d40f9a5df8a99c5cd814857ef7a0b9312adcda31e6196a",
        "trace_cond11.csv": "545bffb2c8c380363558b51797789fe55adfc711b962014509c759336dea3e3a",
        "trace_series_nqx.csv": "47200ddfb36c72295c867f27ab0303789da02e638d348680337a0ed7cda34306",
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


# sha256 of every artifact of the builtin runs on either side of the block
# edges of a check's pass (2**14 indices), pinned when every bundle was
# still made whole before its check: a block pass must give the same bytes
_EDGE = 1 << 14
BLOCK_EDGE_CONFIGS = {
    **{f"{family}_{n}": {"mode": mode, "family": family, "n": n}
       for family, mode in (("F1", "check_main"), ("F2", "check_theorem_a"),
                            ("F3", "check_main"))
       for n in (_EDGE - 1, _EDGE, _EDGE + 1, 3 * _EDGE + 1)},
    "F1_alpha_0.5_16385": {"mode": "check_main", "family": "F1",
                           "n": _EDGE + 1, "overrides": {"alpha": 0.5}},
}
BLOCK_EDGE_DIGESTS = {
    "F1_16383": {
        "report.json":
            "d2aa6f59e97ea83d3af0c95ea3f8e7ff4e18300dc2b789978dfd296b9e990ece",
        "trace_conclusion.csv":
            "b02704b16e053051ad7ee36e341f572c66c3c6cf396d54d8b3f156aaed2d7750",
        "trace_cond11.csv":
            "5db2568d8736d9a00a7b392a450b91132d7b8f9049662f8d844aae922f5cb3a2",
        "trace_series_nqx.csv":
            "8729d90332a1424f2df359f02e5885927a498697c1907242311bbd8cbc084b3e",
    },
    "F1_16384": {
        "report.json":
            "53be6953b83a3e4268c65897c7f654cdf0fb82ac149af43672723b618360cd76",
        "trace_conclusion.csv":
            "22019a5eeddbad1e53ef4d63f55df6d76d6b3af7b0aa1220217a21b241c02b01",
        "trace_cond11.csv":
            "edd09ebbd41865c6bfa1a47581a457e5d41c9e7277f0cc23ff47776764d19953",
        "trace_series_nqx.csv":
            "453322bb223f8593527b658c93e43cf24c3c9948563e454be676550004fe49df",
    },
    "F1_16385": {
        "report.json":
            "f5959e84fddb927bede2c3a3ecc058dbb5e6c194c80e9b1abadb970933d2a97b",
        "trace_conclusion.csv":
            "1433e270f4f1d72690959b3a33503ab79f3b9d74b8dc087f27b34577c6ce760a",
        "trace_cond11.csv":
            "b434dd9d5791ba79050ac162edd2eac0c5a6e7c60e01e915f595b5752e5f52e0",
        "trace_series_nqx.csv":
            "bef3713c7aef145b85828bc254c966b57c44652f7f999ee020f0848ebd8b4ec0",
    },
    "F1_49153": {
        "report.json":
            "01763962fbfd644859e2a73e6b2d45560d4a251223b1b06586cec1b6e8b4a638",
        "trace_conclusion.csv":
            "c4dc42740e9f460775bc782dc3ffb76ab70744d9b5b94cc4959edfd5682d99f5",
        "trace_cond11.csv":
            "8657b5b6ef19aa505031fe4d261358d41edcd6bf656947aef292f49a72ffb355",
        "trace_series_nqx.csv":
            "095fbd0952ed931e0a385c272f9d9ac5559060dea39ebf0a33660c80e954e942",
    },
    "F2_16383": {
        "report.json":
            "955019426aef18aadfb7834ef771a552d6b3b064f12ca7152b9a11667494ceb0",
        "trace_conclusion.csv":
            "e69a2a8e2d45bd23df084124d090cbba5e24089cf184fe4cb715ae20e0bc386a",
        "trace_cond11.csv":
            "5db2568d8736d9a00a7b392a450b91132d7b8f9049662f8d844aae922f5cb3a2",
        "trace_cond8.csv":
            "c2cee815274df214283bd758245b6c747be420831579c6ad165e58a0eaa8c93b",
    },
    "F2_16384": {
        "report.json":
            "0533dd4dd0604407b9c9b17cf818c92e950267987f51f0b48df2b98e6d043488",
        "trace_conclusion.csv":
            "e43b271aac7bee6236dee25873ecd6f7e6b9193db3a504c3c9be157d12376e0f",
        "trace_cond11.csv":
            "edd09ebbd41865c6bfa1a47581a457e5d41c9e7277f0cc23ff47776764d19953",
        "trace_cond8.csv":
            "ced0fa5dd40cc5fff0df67bfe40566c8f3730edb9a9130457c8ea275470b15ce",
    },
    "F2_16385": {
        "report.json":
            "6a9fb75592ee7ee5158fc1e9698c51f4625acfe3de092306410278d6a52ce1cc",
        "trace_conclusion.csv":
            "0cfa25d4a4899717b25a00d52b284976981da28d43feae798567592a4870b07b",
        "trace_cond11.csv":
            "b434dd9d5791ba79050ac162edd2eac0c5a6e7c60e01e915f595b5752e5f52e0",
        "trace_cond8.csv":
            "11c860398f88ac45ba51eebbcb2e85cfd1333bf68153fb117c17d6d5c38e63d0",
    },
    "F2_49153": {
        "report.json":
            "4600cce727113d83db516468cdeda0d840f8846e028a56903298bc53fca54a8b",
        "trace_conclusion.csv":
            "ddd1d486a08c227421b7a91d2210a766c35c5c396dbd0e1f42ead043f4430a32",
        "trace_cond11.csv":
            "8657b5b6ef19aa505031fe4d261358d41edcd6bf656947aef292f49a72ffb355",
        "trace_cond8.csv":
            "e1f028f5ba5418380b1d5a9e73a2a1a15242436fba9fd125cff56f9f532149e8",
    },
    "F3_16383": {
        "report.json":
            "eab470eb16f7049c7d4282cf7f7c8f6468836fbae016f61c312946c32d29e197",
        "trace_conclusion.csv":
            "35724aaa477b5e8e380097039d008401377a1751107f168ab33a8cf27deda40b",
        "trace_cond11.csv":
            "5db2568d8736d9a00a7b392a450b91132d7b8f9049662f8d844aae922f5cb3a2",
        "trace_series_nqx.csv":
            "dd80948013dee6cd45156f09bd31a916a25eaf1f7b3ac2e21769fcf966bf2292",
    },
    "F3_16384": {
        "report.json":
            "54406d5fe438bab7245a61dec8cf13f11dba6ee6bcac1ba07572b982e151ddb5",
        "trace_conclusion.csv":
            "bd285ef9220ac32e5f894e8fc50a96cb8545251f03a678ed43492f6217992763",
        "trace_cond11.csv":
            "edd09ebbd41865c6bfa1a47581a457e5d41c9e7277f0cc23ff47776764d19953",
        "trace_series_nqx.csv":
            "df046af374d1aef605c67bba1e9e2ae93d07b6db427aa1df36afd3bde1c7f974",
    },
    "F3_16385": {
        "report.json":
            "f72beff3433b4ce39b73111685eaf2233756a0f7ccb048f1adec647056876e05",
        "trace_conclusion.csv":
            "9538a560fcbc662d65cf1459ae1ba1e69d345acc22fdbf48d52af4053b5425d5",
        "trace_cond11.csv":
            "b434dd9d5791ba79050ac162edd2eac0c5a6e7c60e01e915f595b5752e5f52e0",
        "trace_series_nqx.csv":
            "9697689412063cba137ff858aa0dcf1c0ea34f0df5b66c6a02755a5be4a032e6",
    },
    "F3_49153": {
        "report.json":
            "18936b35228dbe3bbb02f34e619a40ee80916a0903245a39e8035a134c984e5a",
        "trace_conclusion.csv":
            "d285a49fbabe72ceca876209b3026d211df36efa6c9b7427e92283f6cd445660",
        "trace_cond11.csv":
            "8657b5b6ef19aa505031fe4d261358d41edcd6bf656947aef292f49a72ffb355",
        "trace_series_nqx.csv":
            "f4ddc28f1ae316a4aa90772a97237987d579976bed59d678082d85e7825bfacd",
    },
    "F1_alpha_0.5_16385": {
        "report.json":
            "cf13d67ec0b52dc59f3e9b3993b73861aa02997d4fdb87297d7e3406dca3fc50",
        "trace_conclusion.csv":
            "f754d2f2eb1f4112f91dfa7e9b5a85951f421c339ae607a25712f89362abff75",
        "trace_cond11.csv":
            "a6da6307373c7058f2b8bb8d7b85d8c9092e55c3ab2c798fd7e9b3b7fe145b91",
        "trace_series_nqx.csv":
            "bef3713c7aef145b85828bc254c966b57c44652f7f999ee020f0848ebd8b4ec0",
    },
}


def test_block_edge_runs_are_pinned(tmp_path):
    assert sorted(BLOCK_EDGE_CONFIGS) == sorted(BLOCK_EDGE_DIGESTS)
    for name, obj in BLOCK_EDGE_CONFIGS.items():
        out = tmp_path / name
        run(ExperimentConfig.from_json(obj), out_dir=out, quiet=True)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == BLOCK_EDGE_DIGESTS[name], name
    _announce("builtin runs at n = 2**14 - 1, 2**14, 2**14 + 1 and "
              "3 * 2**14 + 1 byte-identical to their pinned digests")


# sha256 of every artifact of runs far past one block: the three builtin
# checks of the scale benchmark at n = 1e6, and a custom bundle at
# 3 * 2**17 + 5 (not a multiple of 2**14) with a decaying Q and config
# checkpoints that end below n, so that its unjudged figures (trend_ratio
# over quarters that span blocks, abs_variant_total over the terms past the
# last checkpoint) are pinned where they sum many blocks
LARGE_N_CONFIGS = {
    "F1_1000000": {"mode": "check_main", "family": "F1", "n": 10**6},
    "F2_1000000": {"mode": "check_theorem_a", "family": "F2", "n": 10**6},
    "F3_1000000": {"mode": "check_main", "family": "F3", "n": 10**6},
    "custom_393221": {
        "mode": "check_main",
        "n": 3 * (1 << 17) + 5,
        "checkpoints": [4000, 8000, 16000, 32000, 64000, 128000, 256000],
        "bundle": {
            "label": "decaying-majorant",
            "a": {"family": "alternating_unit"},
            "lambda": {"family": "power_decay",
                       "params": {"p": 2.0, "c0": 2.0}},
            "X": {"family": "log_shift"},
            "Q": {"family": "power_decay", "params": {"p": 2.5, "c0": 1.0}},
            "delta": {"family": "power_decay",
                      "params": {"p": 1.5, "c0": 1.0}},
            "weight": {"kind": "indexed", "beta": 0.0},
        },
        "params": {"alpha": 1.0, "k": 2.0, "beta": 0.0, "epsilon": 1.0},
    },
}
LARGE_N_DIGESTS = {
    "F1_1000000": {
        "report.json":
            "5d507aa090a732ada49646cb7fb9150d851f7184aca54016b0ed9d3a0b3f9d92",
        "trace_conclusion.csv":
            "ac978e71c42a2ca6a766a7305408e5b14118f5e866095be5f2a0e5c5f89c80f8",
        "trace_cond11.csv":
            "cb47667c49b3a3b054eded96cc20626a348584e5749c1a3afe00fdc21bdac05e",
        "trace_series_nqx.csv":
            "064c8f9bc48de34bd320c5e7adaecc3f467fba2bbfa56aceb2a4912d67cb4acb",
    },
    "F2_1000000": {
        "report.json":
            "9946273ed7f10d63a6a8174fdcdf4f7cb94de34aa47ea984b309d0265fea8e0b",
        "trace_conclusion.csv":
            "a2767c38281ed6d22cf7ee72658dbfb66504b10b80462eb0793286cb467e37ba",
        "trace_cond11.csv":
            "cb47667c49b3a3b054eded96cc20626a348584e5749c1a3afe00fdc21bdac05e",
        "trace_cond8.csv":
            "2f2c1ae1183b0444eb0286a1f127a4175d2a55303c427fc7753a08e3c46a8331",
    },
    "F3_1000000": {
        "report.json":
            "0c7a77670d7a410c333d9538c2a2ffe85d134503b608599568af942b2f5e62cf",
        "trace_conclusion.csv":
            "a451857eabb6a71cef8829a5c9924165a814186ec7354b0bc831a583428f015d",
        "trace_cond11.csv":
            "cb47667c49b3a3b054eded96cc20626a348584e5749c1a3afe00fdc21bdac05e",
        "trace_series_nqx.csv":
            "697ebdf575c4d7fe1a0063040755e0735f81bb70fedcbc356829f4ebc9231201",
    },
    "custom_393221": {
        "report.json":
            "878c4dee13cf0a43a22aa55a43e01704d33124827bb30f369e36cbf3eaed9e9e",
        "trace_conclusion.csv":
            "aa8136d5336af85bbeea1e931e8e94cacc08f156e2d57dd4b9af19bbf91b57c3",
        "trace_cond11.csv":
            "35ff5f7faf8c26738669d1a818d780d639b167c65b9e8518cd14ff77e4150023",
        "trace_series_nqx.csv":
            "98cf8e5d8ef362b79a7a4f9c5bd6aa41e98262cda63cf2ed226ed2be20e1ad3e",
    },
}


def test_large_n_runs_are_pinned(tmp_path):
    assert sorted(LARGE_N_CONFIGS) == sorted(LARGE_N_DIGESTS)
    for name, obj in LARGE_N_CONFIGS.items():
        out = tmp_path / name
        run(ExperimentConfig.from_json(obj), out_dir=out, quiet=True)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == LARGE_N_DIGESTS[name], name
    _announce("builtin checks at n = 1e6 and a custom bundle at "
              "3 * 2**17 + 5 byte-identical to their pinned digests")
