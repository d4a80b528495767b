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
from summa.checker import (MAIN_CONDITIONS, GrowthVerdict, Tolerances,
                           _x_almost_increasing, check_main_theorem,
                           conclusion_diagnostic, dyadic_checkpoints,
                           growth_diagnostic)
from summa.experiment import (ExperimentConfig, builtin_family, load_config,
                              run)
from summa.functionals import CheckpointTrace
from summa.oracle import rational_cesaro_coefficients, run_all_suites
from summa.sequences import SequenceSpec, materialize

from helpers import drive, full_notes, max_rel_deviation, notes, reduced_terms

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
    with full_notes():
        bumped = drive(_x_almost_increasing, X=bump.values)
        flat = drive(_x_almost_increasing, X=monotone.values)
    inf_ratio = float(notes(bumped)["inf_ratio"])
    assert abs(inf_ratio - math.exp(-2.0)) <= 1e-3
    assert inf_ratio > Tolerances().inf_ratio_floor
    assert bumped.passed

    assert float(notes(flat)["inf_ratio"]) == 1.0
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
            "a125f1c96df19efad7689f39ada6e6048f67df391ed2795c613399c4bc97b97e",
        "trace_conclusion.csv":
            "db6595e43cd04b1ab50984b6e6071d081aa8770028455a8aea68fe116d36354d",
        "trace_cond11.csv":
            "bd635c37e27d75b160c26782b6145252adb19009a43de1243db0179c3f309885",
        "trace_series_nqx.csv":
            "a2edeabf6d2589fc9842e7aacfed5fd1919fddbb7f2d9fc2aada7c6cfed969ef",
    },
    "F1_16384": {
        "report.json":
            "99b2c21837e5e2d94f08ef04dc82cbbd823f8801d543841f6e287660efda355a",
        "trace_conclusion.csv":
            "273a5549c737882e69d169720a8b478c38dacb5bb8e292b7b727127d033fd8c5",
        "trace_cond11.csv":
            "a061c0f13e9bb05e13a0d47448cfd2dca8010807b23ec0e0f9d2b1df745d1101",
        "trace_series_nqx.csv":
            "cd51e35067f57a766f9ea9e253fa8c05b7e5ec5dbbdd5436e77b83698d29743a",
    },
    "F1_16385": {
        "report.json":
            "a9d7c1cfdbce8222c635f8e93eb69b07ae03c036bf402682bb2d1e79f7505b4a",
        "trace_conclusion.csv":
            "4fe64a856fc91a5793b6d93e2df7e258fea69e6ef4a0a23dba76d0c33090d141",
        "trace_cond11.csv":
            "e704789b9686620c34b3a796e88e4b742092f1a0160a9841708453a77e1829ba",
        "trace_series_nqx.csv":
            "5d0a45044e877313196fad12b856f87abe603d1bca0f6b67c7b77afae04fe04b",
    },
    "F1_49153": {
        "report.json":
            "6d6fcb1603067207e2537d348753bbf5b255db6215560400794397e150db1e7b",
        "trace_conclusion.csv":
            "42efa33e452999ec39a38fae97bc33da64bf74119b728625899bf8cf7dae0721",
        "trace_cond11.csv":
            "f352bed378f972e98c83a349ea1332dea03e99432db00a098f2a333526534ebc",
        "trace_series_nqx.csv":
            "c9df3903c95f0e4839bae08a3c7f853bf5455c3c101a3d36efd23f7352af15d7",
    },
    "F2_16383": {
        "report.json":
            "effddd8aa8b9cb0dfa8560a6a7cf6cfa598de4eca2f2a1f1c264c1af1cf3a5c4",
        "trace_conclusion.csv":
            "6ea02dfaf5c02733cf69b6f658466e85efabb07413ea50b6b5d1ecdd1775520b",
        "trace_cond11.csv":
            "bd635c37e27d75b160c26782b6145252adb19009a43de1243db0179c3f309885",
        "trace_cond8.csv":
            "9576953d887644908ee78740b02415b2bca6a65b1920025d82a9e16bb43a7dc5",
    },
    "F2_16384": {
        "report.json":
            "1be1e005d77679aaa32ec5bcae4d37378b7415827b95ebed0afdf4e4a2c6c2e3",
        "trace_conclusion.csv":
            "7074d7101b9e0187e6782515d8b882962d032c4f65538b78220c9da6002350b2",
        "trace_cond11.csv":
            "a061c0f13e9bb05e13a0d47448cfd2dca8010807b23ec0e0f9d2b1df745d1101",
        "trace_cond8.csv":
            "444a835a7347816faa0b1a9afbe7bb6d757be82ab8cffe4e7663785bacb1ab8d",
    },
    "F2_16385": {
        "report.json":
            "0c66ff231f73e7fecca22d22658bb2c36590107a9a0d9fd5d1b0c6745ffb4ebc",
        "trace_conclusion.csv":
            "7c4098dee0294a39815c2ab0391ee84cd6465e35b158dbe2e29a88503c1f2fe8",
        "trace_cond11.csv":
            "e704789b9686620c34b3a796e88e4b742092f1a0160a9841708453a77e1829ba",
        "trace_cond8.csv":
            "12343da5da8b9e3c98d801cb6dad58e6229bcabf62985a32c45160e5302c041e",
    },
    "F2_49153": {
        "report.json":
            "8bcbb729e367bc5044457455fd4afb6bf53e7d63447971bccfec99745f2cd830",
        "trace_conclusion.csv":
            "7542a8cd9c554f8b425ab3a5ed8da3eaf6bf1a6803e2b5900485323a22820786",
        "trace_cond11.csv":
            "f352bed378f972e98c83a349ea1332dea03e99432db00a098f2a333526534ebc",
        "trace_cond8.csv":
            "98ced460f2c83cacd581d80275589ef1b49a5d1a9f7795ce1dbb7ce95620c8c3",
    },
    "F3_16383": {
        "report.json":
            "04f7acd1543c46cb501151e3789f5bf12c804cb968aa7d86dfe7b74364e8e8db",
        "trace_conclusion.csv":
            "5fc13b72e26be005fe1194f78654be68574a26f457b84e9b16c92a1edcd42e09",
        "trace_cond11.csv":
            "bd635c37e27d75b160c26782b6145252adb19009a43de1243db0179c3f309885",
        "trace_series_nqx.csv":
            "b1d00cb08a0cdb9c1e7df8cf9c2a9484a5872bf79afd5ab19067a566d29a0133",
    },
    "F3_16384": {
        "report.json":
            "a1c50e474f5999d5e093aba9c202ad5ccec2605a6b11a1f19f8758726cb9635d",
        "trace_conclusion.csv":
            "c73314f6735c2711a076467ce8252d1c6f30980463eeb7e4bb7033dc608357b0",
        "trace_cond11.csv":
            "a061c0f13e9bb05e13a0d47448cfd2dca8010807b23ec0e0f9d2b1df745d1101",
        "trace_series_nqx.csv":
            "1674596658a8fbd282b21b2f98f24eddb261b66372e6f1be58ef8f9388bac234",
    },
    "F3_16385": {
        "report.json":
            "c490fb59adcc72bc63a121309e697ad9cd47811d677056f84b8432a375e358fd",
        "trace_conclusion.csv":
            "c8dd000d8264c121370a7f11d0619199f027e0f80cb1aaa6c0543a08e0cd805c",
        "trace_cond11.csv":
            "e704789b9686620c34b3a796e88e4b742092f1a0160a9841708453a77e1829ba",
        "trace_series_nqx.csv":
            "56823b9b1dd4bac99321912b206727d2261a8ef4e2519b4e1e5e1390afda03ab",
    },
    "F3_49153": {
        "report.json":
            "c2e303514e34b497d628fb6d4c3a15804f6acee1f635c307dcdb412b3e3c22f3",
        "trace_conclusion.csv":
            "93d2d0dcb71bf37667ab9eeb8de007f5f2719a243ba6a39cc3cad77f57accb5f",
        "trace_cond11.csv":
            "f352bed378f972e98c83a349ea1332dea03e99432db00a098f2a333526534ebc",
        "trace_series_nqx.csv":
            "81bdc7ce71d643ff531ae191bff664ee2c7117705964a45c6b3224128c2ccd0a",
    },
    "F1_alpha_0.5_16385": {
        "report.json":
            "2c3809b148d16d9b6e75637f8412a324d34fdd6740a81fb60be33dd140300500",
        "trace_conclusion.csv":
            "3f1e02a38db10a42fc46ea71b2f52894ea4e4604562fb6396c12abbed4769f28",
        "trace_cond11.csv":
            "fd8fd213a7275b380d5598a1298c3b59b83d12f04b3a89479fccc37429f9411e",
        "trace_series_nqx.csv":
            "5d0a45044e877313196fad12b856f87abe603d1bca0f6b67c7b77afae04fe04b",
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
            "adc14fe62df319d6d0e9edb9715116474843c369f6c3471b3d31365d4b6e0306",
        "trace_conclusion.csv":
            "7d09d704b09be2919f177b36d31afaf5fdbc1018cb97fe60765d162d6873aa3c",
        "trace_cond11.csv":
            "cab0a3235b9f4098496b6ab7e3615e1badc2a6626bb066955512c4b32dd7b3a2",
        "trace_series_nqx.csv":
            "3bacf73b004f0c00876cd76cd735b646b95c3840901d4358ccdda36d521f3a80",
    },
    "F2_1000000": {
        "report.json":
            "4a80856f796d370c6dd288b6f2ebccea9f6a51b3e15cbe41a3d0858823409834",
        "trace_conclusion.csv":
            "889cd0fd69ea4438e2dd947bc4af1663287081169759b3f68ab7eb256b9d0c63",
        "trace_cond11.csv":
            "cab0a3235b9f4098496b6ab7e3615e1badc2a6626bb066955512c4b32dd7b3a2",
        "trace_cond8.csv":
            "002630981ea81ca08ea1cfa030e5e79942601c9f10bb21d4cc8422a3101b5600",
    },
    "F3_1000000": {
        "report.json":
            "04ffc36cf72a635e876119ddcf3dc2be699bf9ffeb5bf5a8e8184822847d4f89",
        "trace_conclusion.csv":
            "ebc32a5f764054c3fd92ed4b5a0419dca0f6c2e852bc813f63d69dbbcb5f96d0",
        "trace_cond11.csv":
            "cab0a3235b9f4098496b6ab7e3615e1badc2a6626bb066955512c4b32dd7b3a2",
        "trace_series_nqx.csv":
            "fb6f7f45c7339312f52f8fdb6cc52f30766ed06f8cacb45bf3606f3623fd7f20",
    },
    "custom_393221": {
        "report.json":
            "fe13e6d89bcb9081b0e0703ed5731b3e4f609e01320eeb7f75b95b5a3bcfd44d",
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
