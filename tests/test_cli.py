import argparse
import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from powerparts import family
from powerparts.bigcount import PartitionKind
from powerparts.cli import _grid, main

from _schema import validate

SCHEMA_DIR = Path(__file__).parent.parent / "src" / "powerparts" / "schemas"


def load_schema(name: str) -> dict:
    with open(SCHEMA_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(capsys, *argv) -> tuple:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_csv_squares(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--kind", "unrestricted",
                               "--k", "2", "--n-max", "10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,coeff"
        assert len(lines) == 12
        assert lines[5] == "4,2"

    def test_json_validates(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--kind", "distinct", "--k", "2",
                               "--n-max", "16", "--format", "json")
        assert code == 0
        assert validate(json.loads(out), load_schema("count.schema.json")) == []

    def test_methods_agree_byte_identical(self, capsys):
        _, out_dp, _ = run_cli(capsys, "count", "--k", "3", "--n-max", "64")
        _, out_rec, _ = run_cli(capsys, "count", "--k", "3", "--n-max", "64",
                                "--method", "recurrence")
        assert out_dp == out_rec

    def test_k_zero_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "count", "--k", "0", "--n-max", "5")
        assert code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--n-max", "3",
                               "--output", str(target))
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,coeff\n0,1\n")

    @pytest.mark.parametrize("method", ["dp", "recurrence"])
    def test_budget_refusal(self, capsys, method):
        # refused before any table is allocated; the quadratic log recurrence
        # has a budget of its own
        budget = {"dp": 131072, "recurrence": 8192}[method]
        code, out, err = run_cli(capsys, "count", "--k", "1", "--n-max", str(budget + 1),
                                 "--method", method)
        assert code == 2 and out == ""
        assert "budget" in err and str(budget) in err and "--max-n" in err

    def test_max_n_sets_the_recurrence_budget(self, capsys):
        code, out, err = run_cli(capsys, "count", "--k", "1", "--n-max", "11",
                                 "--max-n", "10", "--method", "recurrence")
        assert code == 2 and out == "" and "budget 10 " in err
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--n-max", "10",
                               "--max-n", "10", "--method", "recurrence")
        assert code == 0 and out.endswith("\n10,42\n")

    def test_max_n_sets_the_budget(self, capsys):
        code, out, err = run_cli(capsys, "count", "--k", "1", "--n-max", "11",
                                 "--max-n", "10")
        assert code == 2 and out == "" and "budget 10 " in err
        code, out, _ = run_cli(capsys, "count", "--k", "1", "--n-max", "10",
                               "--max-n", "10")
        assert code == 0 and out.endswith("\n10,42\n")

    @pytest.mark.parametrize("method", ["dp", "recurrence"])
    def test_memory_error_exit_one(self, capsys, method):
        # a 10^18-entry table fails its first allocation at once
        code, out, err = run_cli(capsys, "count", "--k", "1", "--n-max", str(10**18),
                                 "--max-n", str(10**18), "--method", method)
        assert code == 1 and out == ""
        assert err == "error: computation failed: MemoryError\n"


class TestConstants:
    def test_beta_k1(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--k", "1")
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["beta"], math.pi * math.sqrt(2.0 / 3.0),
                            rel_tol=1e-14)

    def test_schema(self, capsys):
        for k in ("1", "4"):
            _, out, _ = run_cli(capsys, "constants", "--k", k)
            assert validate(json.loads(out), load_schema("constants.schema.json")) == []


class TestFamily:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--kind", "unrestricted",
                               "--k", "1", "--s", "0.5")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "s,mean,variance,theta,cf_real,cf_imag"
        cells = lines[1].split(",")
        assert float(cells[3]) == 0.0
        assert float(cells[4]) == 1.0 and float(cells[5]) == 0.0

    def test_theta_grid(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--k", "2", "--s", "0.1",
                               "--theta-grid", "0:2:5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6
        thetas = [float(l.split(",")[3]) for l in lines[1:]]
        assert thetas == [0.0, 0.5, 1.0, 1.5, 2.0]
        mods = [math.hypot(float(l.split(",")[4]), float(l.split(",")[5]))
                for l in lines[1:]]
        assert all(m <= 1.0 + 1e-12 for m in mods)

    @pytest.mark.parametrize("kind", ["unrestricted", "distinct"])
    def test_one_real_axis_pass(self, capsys, monkeypatch, axis_passes, kind):
        # one real-axis pass per term of the kind gives F(-s), the mean and
        # the variance; one kernel call gives the rows off the axis
        calls = []
        kernel = family._fulcrum_at

        def counted(kind_, k, ms, z, eps):
            calls.append((list(ms), sum(p.imag != 0.0 for p in z)))
            return kernel(kind_, k, ms, z, eps)

        monkeypatch.setattr(family, "_fulcrum_at", counted)
        code, out, _ = run_cli(capsys, "family", "--kind", kind, "--k", "2",
                               "--s", "0.1", "--theta-grid", "0:2:5")
        assert code == 0
        assert axis_passes == [[0, 1, 2]] * (1 if kind == "unrestricted" else 2)
        assert calls == [([0, 1, 2], 0), ([0], 4)]
        monkeypatch.undo()
        cfs = family.char_fn_normalized(family.family_point(PartitionKind.parse(kind), 2, 0.1),
                                        [0.0, 0.5, 1.0, 1.5, 2.0])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(float(r[4]), float(r[5])) for r in rows] == [
            (float(format(c.real, ".15g")), float(format(c.imag, ".15g"))) for c in cfs]

    def test_malformed_grid(self, capsys):
        code, _, _ = run_cli(capsys, "family", "--k", "1", "--s", "0.5",
                             "--theta-grid", "0:2")
        assert code == 2

    def test_nonpositive_s(self, capsys):
        code, _, _ = run_cli(capsys, "family", "--k", "1", "--s", "-1")
        assert code == 2


class TestAsymptotic:
    @pytest.mark.parametrize("method", ["bd", "exact", "hr"])
    def test_schema_unrestricted(self, capsys, method):
        code, out, _ = run_cli(capsys, "asymptotic", "--kind", "unrestricted",
                               "--k", "1", "--n", "500", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert validate(payload, load_schema("asymptotic.schema.json")) == []
        assert payload["heuristic"] is False

    def test_qk_distinct(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotic", "--kind", "distinct",
                               "--k", "2", "--n", "300", "--method", "qk")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula"] == "closed_form_q"
        assert payload["s"] is None and payload["residual"] is None

    def test_distinct_hayman_flagged(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotic", "--kind", "distinct",
                               "--k", "1", "--n", "200", "--method", "exact")
        assert code == 0
        assert json.loads(out)["heuristic"] is True

    def test_method_kind_mismatch(self, capsys):
        code, _, err = run_cli(capsys, "asymptotic", "--kind", "distinct",
                               "--k", "1", "--n", "100", "--method", "hr")
        assert code == 2 and "unrestricted" in err
        code, _, _ = run_cli(capsys, "asymptotic", "--kind", "unrestricted",
                             "--k", "1", "--n", "100", "--method", "qk")
        assert code == 2


class TestRatioTable:
    def test_deviation_decreases(self, capsys):
        code, out, _ = run_cli(capsys, "ratio-table", "--kind", "unrestricted",
                               "--k", "1", "--n-grid", "geometric:128:8192:7")
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "n" and header[1] == "exact_log"
        col = header.index("closed_form_ratio")
        devs = [abs(float(l.split(",")[col]) - 1.0) for l in lines[1:]]
        assert all(b < a for a, b in zip(devs, devs[1:]))

    def test_k3_moderate_grid_completes(self, capsys):
        code, out, _ = run_cli(capsys, "ratio-table", "--kind", "unrestricted",
                               "--k", "3", "--n-grid", "geometric:100:10000:5")
        assert code == 0
        assert len(out.strip().split("\n")) == 6

    def test_budget_refusal(self, capsys):
        code, out, err = run_cli(capsys, "ratio-table", "--kind", "unrestricted",
                                 "--k", "1", "--n-grid", "geometric:128:131073:3")
        assert code == 2 and out == ""
        assert "budget" in err and "131072" in err

    def test_one_budget_for_every_k(self, capsys):
        errs = []
        for k in ("1", "2"):
            code, out, err = run_cli(capsys, "ratio-table", "--k", k,
                                     "--n-grid", "geometric:128:131073:3")
            assert code == 2 and out == ""
            errs.append(err.replace(f"k={k}", "k=K"))
        assert errs[0] == errs[1]

    def test_budget_override(self, capsys):
        code, _, _ = run_cli(capsys, "ratio-table", "--kind", "unrestricted",
                             "--k", "1", "--n-grid", "geometric:128:512:3",
                             "--max-n", "512")
        assert code == 0

    def test_malformed_grid(self, capsys):
        code, _, _ = run_cli(capsys, "ratio-table", "--k", "1",
                             "--n-grid", "128:512:3")
        assert code == 2

    def test_zero_count_refused_with_hint(self, capsys):
        # q_2(128) = 0: no log ratio exists there
        code, _, err = run_cli(capsys, "ratio-table", "--kind", "distinct",
                               "--k", "2", "--n-grid", "geometric:128:512:3")
        assert code == 2 and "zero" in err


class TestDiagnose:
    def test_em_json(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--k", "1", "--suite", "em")
        assert code == 0
        payload = json.loads(out)
        assert validate(payload, load_schema("diagnose.schema.json")) == []
        assert payload["verdicts"]["euler_maclaurin_identity"]["pass"] is True

    def test_all_schema(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--k", "1", "--suite", "all",
                               "--draws", "10000", "--seed", "4")
        assert code == 0
        assert validate(json.loads(out), load_schema("diagnose.schema.json")) == []

    def test_csv_flatten(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--k", "1", "--suite", "strong",
                               "--csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "metric,s,value"
        assert len(lines) == 5
        assert all(l.startswith("strong_gauss_l1,") for l in lines[1:])

    def test_byte_identical_reruns(self, capsys):
        args = ("diagnose", "--k", "1", "--suite", "clt", "--draws", "10000",
                "--seed", "21", "--s-grid", "0.2:0.05:2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("suite, grid, verdict", [
        ("gauss", "0.1:0.1:1", "gaussianity_ratio_m3"),
        ("bd", "0.1:0.05:3", "bd_normalized_gap"),
    ])
    def test_grid_too_short_for_slope(self, capsys, suite, grid, verdict):
        def reject(name):
            raise ValueError(f"not JSON: {name}")

        code, out, _ = run_cli(capsys, "diagnose", "--k", "1", "--suite", suite,
                               "--s-grid", grid)
        assert code == 0
        payload = json.loads(out, parse_constant=reject)
        assert validate(payload, load_schema("diagnose.schema.json")) == []
        assert payload["verdicts"][verdict]["slope_fitted"] is None
        assert payload["verdicts"][verdict]["pass"] is False

    def test_burn_in_flag(self, capsys):
        code, out, _ = run_cli(capsys, "diagnose", "--k", "2", "--suite", "strong",
                               "--burn-in", "1")
        assert code == 0
        assert json.loads(out)["verdicts"]["strong_gauss_l1"]["pass"] is True

    def test_twl_small_s(self, capsys):
        # |f|/f underflows to 0 on this grid; -log |f|/f is read directly
        code, out, _ = run_cli(capsys, "diagnose", "--kind", "unrestricted", "--k", "1",
                               "--suite", "twl", "--s-grid", "0.002:0.002:1")
        assert code == 0
        payload = json.loads(out)
        assert math.isclose(payload["metrics"]["twl_d1"][0], 0.0406, rel_tol=1e-3)
        assert math.isclose(payload["metrics"]["twl_d2"][0], 1.233, rel_tol=1e-3)
        assert payload["metrics"]["twl_violations"] == [0.0]
        assert payload["verdicts"]["twl_bound"]["pass"] is True

    def test_all_refuses_s_grid(self, capsys):
        code, out, err = run_cli(capsys, "diagnose", "--k", "1", "--suite", "all",
                                 "--s-grid", "0.3:0.3:1", "--csv")
        assert code == 2 and out == ""
        assert "--s-grid" in err and "--suite all" in err

    def test_bad_suite(self, capsys):
        code, _, _ = run_cli(capsys, "diagnose", "--k", "1", "--suite", "bogus")
        assert code == 2


class TestRefusedInput:
    """Non-finite numbers and degenerate grids are refused at parse time:
    exit 2, nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        "family --k 1 --s 0.1 --theta-grid nan:1:3",
        "family --k 1 --s 0.1 --theta-grid 0:inf:3",
        "family --k 1 --s inf",
        "family --k 1 --s 0.1 --eps inf",
        "asymptotic --k 1 --n 100 --method exact --rtol inf",
        "diagnose --k 1 --suite strong --s-grid inf:inf:1",
        "diagnose --k 1 --suite strong --s-grid geometric:nan:0.1:2",
        "diagnose --k 1 --suite strong --quad-tol inf",
        "diagnose --k 1 --suite strong --s-grid geometric:0.2:0.1:1",
        "diagnose --k 1 --suite strong --s-grid geometric:0.2:0.2:3",
        "ratio-table --k 1 --n-grid geometric:128:256:1",
        "ratio-table --k 1 --n-grid geometric:128:128:3",
        "family --k 1 --s 0.1 --theta-grid geometric:0.1:1:3",
    ])
    def test_exit_2_without_output(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv.split())
        assert code == 2 and out == ""
        assert f"error: argument --{argv.split()[-2][2:]}:" in err

    @pytest.mark.parametrize("spec, values", [
        ("1:1:1", [1.0]),
        ("2:-1:4", [2.0, 1.0, 0.0, -1.0]),
    ])
    def test_linear_grid_values(self, spec, values):
        assert _grid()(spec) == values

    def test_geometric_int_grid_values(self):
        read = _grid(("geometric",), cast=int)
        assert read("geometric:10:20:30") == list(range(10, 21))
        assert read("geometric:128:128:1") == [128]


def _cli_text(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


_kinds = st.sampled_from(["unrestricted", "distinct"])
_eps = st.floats(-15.0, -1.0).map(lambda e: repr(10.0**e))
_cheap_argv = st.one_of(
    st.tuples(st.just("constants"), st.just("--k"), st.integers(1, 8).map(str),
              st.just("--m-max"), st.integers(-2, 10).map(str)),
    st.tuples(st.just("asymptotic"), st.just("--kind"), _kinds,
              st.just("--k"), st.integers(1, 6).map(str),
              st.just("--n"), st.integers(1, 10**12).map(str),
              st.just("--method"), st.sampled_from(["bd", "hr", "qk"]),
              st.just("--eps"), _eps),
    st.tuples(st.just("family"), st.just("--kind"), _kinds,
              st.just("--k"), st.integers(1, 4).map(str),
              st.just("--s"), st.floats(-1.7, 1.5).map(lambda e: repr(10.0**e)),
              st.just("--eps"), _eps, st.just("--theta-grid"),
              st.tuples(st.floats(-10, 10), st.floats(-10, 10), st.integers(1, 4)).map(
                  lambda t: f"{t[0]!r}:{t[0] if t[2] == 1 else t[1]!r}:{t[2]}")),
    st.tuples(st.just("count"), st.just("--kind"), _kinds,
              st.just("--k"), st.integers(1, 4).map(str),
              st.just("--n-max"), st.integers(0, 200).map(str),
              st.just("--format"), st.sampled_from(["csv", "json"]),
              st.just("--method"), st.sampled_from(["dp", "recurrence"])),
)


class TestProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(argv=_cheap_argv)
    def test_cheap_commands_strict_output(self, argv):
        """Accepted arguments give strict, schema-valid, deterministic JSON or
        CSV without NaN or infinities, or exit 1 or 2 with an error line."""
        argv = list(argv)
        code, out, err = _cli_text(argv)
        if code != 0:
            assert code in (1, 2) and out == ""
            assert "error:" in err and "Traceback" not in err
            return
        assert _cli_text(argv) == (code, out, err)
        if argv[0] in ("constants", "asymptotic") or "json" in argv:
            payload = json.loads(out, parse_constant=_reject_constant)
            schema = "count" if argv[0] == "count" else argv[0]
            assert validate(payload, load_schema(f"{schema}.schema.json")) == []
        else:
            rows = [line.split(",") for line in out.rstrip("\n").split("\n")]
            assert len({len(r) for r in rows}) == 1
            assert all(math.isfinite(float(cell)) for r in rows[1:] for cell in r)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(parts=st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.integers(-3, 10**6).map(str),
        st.sampled_from(["nan", "inf", "-inf", "", "x", "1e400", "-0", "1_0", "2.0"])),
        min_size=2, max_size=4), n=st.integers(-2, 40), geometric=st.booleans())
    @example(parts=["0", "inf"], n=3, geometric=False)
    @example(parts=["-1e308", "1e308"], n=3, geometric=False)
    @example(parts=["1", str(10**400)], n=3, geometric=True)
    def test_grid_specs(self, parts, n, geometric):
        """Every grid reader either refuses a spec or returns its finite values."""
        spec = ":".join((["geometric"] if geometric else []) + parts + [str(n)])
        readers = {"theta": _grid(),
                   "s": _grid(("linear", "geometric"), positive=True),
                   "n": _grid(("geometric",), cast=int)}
        for name, read in readers.items():
            try:
                vals = read(spec)
            except argparse.ArgumentTypeError:
                continue
            assert all(math.isfinite(v) for v in vals), name
            if name == "n":
                assert all(isinstance(v, int) for v in vals)
                assert 1 <= len(vals) <= n and vals == sorted(set(vals))
            else:
                assert len(vals) == n
            if name == "s":
                assert all(v > 0 for v in vals)


class TestTopLevel:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_computation_error_exit_one(self, capsys):
        # series cap unreachable at this s: truncation failure -> exit 1
        code, _, err = run_cli(capsys, "family", "--k", "1", "--s", "1e-9")
        assert code == 1
        assert "computation failed" in err
